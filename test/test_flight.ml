(* Tests for the flight recorder (lib/obs/flight): the per-node black-box
   rings, the versioned dump codec, automatic dumps on failure, and the
   forensics timeline renderers.

   The last test is the seeded regression the ISSUE pins: a real protocol
   workload plus an injected DSan stale-cache-read violation must
   auto-write a *.flight.json dump from which the ownership timeline of
   the offending object is reconstructed — from the dump alone, no
   re-run. *)

module Flight = Drust_obs.Flight
module Engine = Drust_sim.Engine
module Cluster = Drust_machine.Cluster
module Params = Drust_machine.Params
module Ctx = Drust_machine.Ctx
module P = Drust_core.Protocol
module Gaddr = Drust_memory.Gaddr
module Cache = Drust_memory.Cache
module Univ = Drust_util.Univ
module Dsan = Drust_check.Dsan
module Darc = Drust_runtime.Darc
module Dmutex = Drust_runtime.Dmutex
module Fabric = Drust_net.Fabric
module Fault = Drust_sim.Fault
module Metrics = Drust_obs.Metrics

let int_tag : int Univ.tag = Univ.create_tag ~name:"int"
let pack = Univ.pack int_tag

let small_params nodes =
  {
    Params.default with
    Params.nodes;
    cores_per_node = 4;
    mem_per_node = Drust_util.Units.mib 64;
  }

let in_cluster ?(nodes = 4) body =
  let cluster = Cluster.create (small_params nodes) in
  let result = ref None in
  ignore
    (Engine.spawn (Cluster.engine cluster) (fun () ->
         result := Some (body cluster)));
  Cluster.run cluster;
  match !result with Some v -> v | None -> Alcotest.fail "body did not run"

let in_temp_dump_dir f =
  let dir = Filename.temp_file "flight" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Flight.set_dump_dir (Some dir);
  Fun.protect
    ~finally:(fun () ->
      Flight.set_dump_dir None;
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let contains ~affix s = Astring.String.is_infix ~affix s

let check_line msg ~affix lines =
  Alcotest.(check bool)
    (Printf.sprintf "%s (looking for %S)" msg affix)
    true
    (List.exists (contains ~affix) lines)

(* A thread-less event, as the fabric and membership layers report. *)
let record t ~node ~time ~kind ~a ~b ~c ~d =
  Flight.record t ~node ~time ~thread:(-1) ~kind ~a ~b ~c ~d

(* ------------------------------------------------------------------ *)
(* Kind table *)

(* Codes 0..8 must be exactly the protocol's dense op-outcome codes
   (Protocol.op_latency_kinds order): the protocol layer records its
   already-computed outcome code untranslated. *)
let test_kind_table_pins_protocol_codes () =
  let n = List.length P.op_latency_kinds in
  Alcotest.(check (list string))
    "codes 0..8 are the protocol outcome labels, in order"
    P.op_latency_kinds
    (Array.to_list (Array.sub Flight.kind_names 0 n));
  Alcotest.(check int) "read_local is code 0" 0 Flight.k_read_local;
  Alcotest.(check int) "drop is the last protocol code" (n - 1) Flight.k_drop;
  Alcotest.(check int) "dsan_violation is the last ring kind"
    (Flight.ring_kinds - 1) Flight.k_dsan_violation;
  Alcotest.(check int) "every kind code is named"
    (Array.length Flight.kind_names - 1)
    Flight.k_chain_host

(* ------------------------------------------------------------------ *)
(* The ring *)

let test_ring_wraps_and_merges () =
  let t = Flight.create ~cap:4 ~nodes:2 () in
  for i = 1 to 10 do
    record t ~node:0 ~time:(float_of_int i) ~kind:Flight.k_fab_send
      ~a:1 ~b:i ~c:0 ~d:0
  done;
  record t ~node:1 ~time:99.0 ~kind:Flight.k_view_change ~a:7 ~b:0
    ~c:0 ~d:0;
  Alcotest.(check int) "recorded counts overflow too" 10
    (Flight.recorded t ~node:0);
  let evs = Flight.events t in
  Alcotest.(check int) "cap survivors + the other node" 5 (List.length evs);
  Alcotest.(check (list int)) "last cap events, record order"
    [ 7; 8; 9; 10 ]
    (List.filter_map
       (fun e ->
         if e.Flight.ev_node = 0 then Some e.Flight.ev_b else None)
       evs);
  (match List.rev evs with
  | last :: _ ->
      Alcotest.(check int) "cross-node merge keeps true order" 1
        last.Flight.ev_node
  | [] -> Alcotest.fail "no events");
  (* Out-of-range nodes and disabled recorders drop silently. *)
  record t ~node:9 ~time:0.0 ~kind:0 ~a:0 ~b:0 ~c:0 ~d:0;
  Flight.set_enabled t false;
  record t ~node:0 ~time:0.0 ~kind:0 ~a:0 ~b:0 ~c:0 ~d:0;
  Alcotest.(check int) "disabled drops" 10 (Flight.recorded t ~node:0);
  Flight.set_enabled t true

(* ------------------------------------------------------------------ *)
(* The subscriber slot *)

let test_subscriber_slot () =
  let t = Flight.create ~cap:4 ~nodes:2 () in
  let seen = ref [] in
  let sub name ~time:_ ~node:_ ~thread ~kind ~a:_ ~b:_ ~c:_ ~d:_ =
    seen := (name, Flight.kind_names.(kind), thread) :: !seen
  in
  let first = Flight.subscribe t (sub "first") in
  Flight.record t ~node:0 ~time:0.0 ~thread:3 ~kind:Flight.k_create ~a:0 ~b:0
    ~c:0 ~d:0;
  Flight.record t ~node:0 ~time:0.0 ~thread:3 ~kind:Flight.k_cache_hit ~a:0
    ~b:0 ~c:0 ~d:0;
  Alcotest.(check int) "subscriber-only kinds stay out of the ring" 1
    (Flight.recorded t ~node:0);
  Flight.set_enabled t false;
  record t ~node:1 ~time:0.0 ~kind:Flight.k_fab_read ~a:0 ~b:0 ~c:0 ~d:0;
  Flight.set_enabled t true;
  Alcotest.(check int) "a disabled ring stores nothing" 0
    (Flight.recorded t ~node:1);
  (* The last subscriber wins; a stale token unsubscribes nothing. *)
  let second = Flight.subscribe t (sub "second") in
  Flight.unsubscribe t first;
  record t ~node:1 ~time:0.0 ~kind:Flight.k_drop ~a:0 ~b:0 ~c:0 ~d:0;
  Flight.unsubscribe t second;
  record t ~node:1 ~time:0.0 ~kind:Flight.k_drop ~a:0 ~b:0 ~c:0 ~d:0;
  Alcotest.(check (list (triple string string int)))
    "every event reaches the current subscriber, enabled or not"
    [
      ("first", "create", 3);
      ("first", "cache_hit", 3);
      ("first", "fab_read", -1);
      ("second", "drop", -1);
    ]
    (List.rev !seen)

(* Every fabric counter, cache.hits and cache.inserts must equal the
   number of events of its kind: the counters and the event schema
   describe the same hook sites.  The workload covers reads, writes,
   moves, Darc, Dmutex, remote allocation and the failure paths. *)
let test_counters_agree_with_kinds () =
  let counts = Array.make (Array.length Flight.kind_names) 0 in
  let totals =
    in_cluster (fun cluster ->
        ignore
          (Flight.subscribe (Cluster.flight cluster)
             (fun ~time:_ ~node:_ ~thread:_ ~kind ~a:_ ~b:_ ~c:_ ~d:_ ->
               counts.(kind) <- counts.(kind) + 1));
        let ctx0 = Ctx.make cluster ~node:0 in
        let ctx1 = Ctx.make cluster ~node:1 in
        (* reads: local, remote fetch, cache hit *)
        let o = P.create_on ctx0 ~node:0 ~size:64 (pack 1) in
        ignore (P.owner_read ctx0 o);
        let r1 = P.borrow_imm ctx1 o in
        let r2 = P.borrow_imm ctx1 o in
        ignore (P.imm_deref ctx1 r1);
        ignore (P.imm_deref ctx1 r2);
        P.drop_imm ctx1 r1;
        P.drop_imm ctx1 r2;
        (* writes: a remote write moves, a local one bumps the color *)
        P.owner_write ctx1 o (pack 2);
        P.owner_write ctx0 o (pack 3);
        P.drop_owner ctx0 o;
        (* remote allocation and free *)
        P.drop_owner ctx0 (P.create_on ctx0 ~node:2 ~size:64 (pack 0));
        (* Darc: remote clone (atomic), remote get (fetch, then hit) *)
        let a = Darc.create ctx0 ~size:32 (pack 7) in
        let b = Darc.clone ctx1 a in
        ignore (Darc.get ctx1 b);
        ignore (Darc.get ctx1 b);
        Darc.drop ctx1 b;
        Darc.drop ctx0 a;
        (* Dmutex from a remote node: CAS atomics, WRITE release *)
        let mu = Dmutex.create ctx0 ~size:16 (pack 0) in
        Dmutex.with_lock ctx1 mu (fun v -> (v, ()));
        (* failure paths: a stale-epoch NAK, then drops, timeouts and a
           retry against a partitioned node *)
        let fab = Cluster.fabric cluster in
        Fabric.set_epoch_source fab (Some (fun () -> 5));
        (try Fabric.rdma_read ~epoch:1 fab ~from:0 ~target:1 ~bytes:8
         with Fabric.Stale_epoch _ -> ());
        Fabric.set_epoch_source fab None;
        let plan =
          Fault.create ~engine:(Cluster.engine cluster)
            ~rng:(Drust_util.Rng.create ~seed:7) ~nodes:4 ()
        in
        let now = Cluster.now cluster in
        Fault.partition_at plan ~group:[ 3 ] ~at:now ~heal_at:(now +. 1.0);
        Fabric.set_fault_plan fab plan;
        (try
           Fabric.retry_with_backoff fab ~from:0 ~attempts:2 (fun () ->
               Fabric.rpc_with_timeout fab ~from:0 ~target:3 ~req_bytes:8
                 ~resp_bytes:8 ~timeout:1e-4 (fun () -> ()))
         with Fabric.Rpc_timeout _ -> ());
        Metrics.snapshot (Cluster.metrics cluster))
  in
  let n k = counts.(k) in
  List.iter
    (fun (name, events) ->
      Alcotest.(check bool) (name ^ " exercised") true (events > 0);
      Alcotest.(check int) (name ^ " = its events") events
        (Metrics.total totals name))
    [
      ("fabric.reads", n Flight.k_fab_read);
      ("fabric.writes", n Flight.k_fab_write);
      ("fabric.atomics", n Flight.k_fab_atomic);
      ("fabric.rpcs", n Flight.k_fab_rpc + n Flight.k_fab_send);
      ("fabric.timeouts", n Flight.k_fab_timeout);
      ("fabric.retries", n Flight.k_fab_retry);
      ("fabric.drops", n Flight.k_fab_drop);
      ("fabric.stale_epochs", n Flight.k_fab_stale_epoch);
      ("cache.hits", n Flight.k_cache_hit);
      ("cache.inserts", n Flight.k_cache_insert);
    ]

(* ------------------------------------------------------------------ *)
(* Dump codec *)

let test_dump_roundtrip () =
  let t = Flight.create ~cap:8 ~nodes:3 () in
  Flight.set_label t "codec-test";
  record t ~node:0 ~time:1.25e-6 ~kind:Flight.k_create ~a:4096 ~b:0
    ~c:0 ~d:64;
  record t ~node:2 ~time:2.5e-6 ~kind:Flight.k_read_fetch ~a:4096
    ~b:0 ~c:0 ~d:0;
  record t ~node:0 ~time:3.75e-6 ~kind:Flight.k_write_bump ~a:4096
    ~b:4096 ~c:1 ~d:0;
  record t ~node:1 ~time:4.0e-6 ~kind:Flight.k_fab_timeout ~a:2 ~b:0
    ~c:0 ~d:0;
  let d = Flight.dump t ~reason:"unit test" ~object_:4096 ~now:5.0e-6 () in
  Alcotest.(check int) "slice keeps only object events" 3
    (List.length d.Flight.dm_slice);
  let path = Filename.temp_file "flight" ".flight.json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Flight.save ~path d;
      match Flight.load ~path with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok d' ->
          Alcotest.(check bool) "dump roundtrips structurally" true (d = d'));
  (* Unknown schema and junk are rejected with a message, not raised. *)
  Alcotest.(check bool) "junk rejected" true
    (match Flight.of_json (Drust_util.Json.Obj []) with
    | Error _ -> true
    | Ok _ -> false)

(* ------------------------------------------------------------------ *)
(* Timeline rendering on synthetic events *)

let test_explain_object_timeline () =
  let t = Flight.create ~cap:64 ~nodes:4 () in
  let phys = 8192 in
  record t ~node:0 ~time:0.0 ~kind:Flight.k_create ~a:phys ~b:0 ~c:0
    ~d:64;
  (* node 2 fetches a copy under color 0 *)
  record t ~node:2 ~time:1e-6 ~kind:Flight.k_read_fetch ~a:phys ~b:0
    ~c:0 ~d:0;
  (* unrelated object: must not show up in the slice *)
  record t ~node:3 ~time:1.5e-6 ~kind:Flight.k_read_local ~a:12288
    ~b:3 ~c:0 ~d:0;
  (* the owner writes: color bump strands node 2's copy *)
  record t ~node:0 ~time:2e-6 ~kind:Flight.k_write_bump ~a:phys
    ~b:phys ~c:1 ~d:0;
  record t ~node:0 ~time:3e-6 ~kind:Flight.k_transfer ~a:phys ~b:3
    ~d:0 ~c:0;
  record t ~node:2 ~time:4e-6 ~kind:Flight.k_dsan_violation ~a:phys
    ~b:1 ~c:0 ~d:0;
  let lines = Flight.explain_object ~object_:phys (Flight.events t) in
  check_line "creation" ~affix:"create" lines;
  check_line "staleness note" ~affix:"went stale here" lines;
  Alcotest.(check bool) "staleness names node 2" true
    (List.exists
       (fun l -> contains ~affix:"went stale" l && contains ~affix:"[2]" l)
       lines);
  check_line "violation marker" ~affix:"DSan flagged this object here" lines;
  check_line "ownership resolved" ~affix:"last known owner: node 3" lines;
  Alcotest.(check bool) "unrelated object filtered out" true
    (not (List.exists (contains ~affix:"0x3000") lines));
  (* render_last is per node, oldest first, bounded. *)
  let last = Flight.render_last ~limit:1 (Flight.events t) ~node:0 in
  Alcotest.(check int) "limit respected" 1 (List.length last);
  check_line "newest survives" ~affix:"transfer" last

(* ------------------------------------------------------------------ *)
(* Automatic dumps *)

let test_guard_dumps_and_reraises () =
  in_temp_dump_dir (fun _dir ->
      let t = Flight.create ~nodes:2 () in
      Flight.set_label t "guard-test";
      record t ~node:0 ~time:1.0 ~kind:Flight.k_view_change ~a:1 ~b:0
        ~c:0 ~d:0;
      let raised =
        try
          Flight.guard t ~now:(fun () -> 1.5) (fun () -> failwith "boom")
        with Failure m -> m
      in
      Alcotest.(check string) "exception re-raised intact" "boom" raised;
      let path = Flight.auto_dump_path t in
      Alcotest.(check bool) "dump written" true (Sys.file_exists path);
      (match Flight.load ~path with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok d ->
          Alcotest.(check bool) "reason is the exception" true
            (contains ~affix:"uncaught" d.Flight.dm_reason
            && contains ~affix:"boom" d.Flight.dm_reason);
          Alcotest.(check (float 1e-12)) "dump time" 1.5 d.Flight.dm_time;
          Alcotest.(check int) "ring retained" 1
            (List.length d.Flight.dm_events));
      (* First failure wins: a second dump would overwrite the tail that
         explains the first. *)
      Alcotest.(check bool) "second auto_dump refused" false
        (Flight.auto_dump t ~reason:"later" ~now:2.0 ());
      (* The process-wide kill switch. *)
      let t2 = Flight.create ~nodes:1 () in
      Flight.set_label t2 "guard-test-disabled";
      Flight.set_auto_dump false;
      Fun.protect
        ~finally:(fun () -> Flight.set_auto_dump true)
        (fun () ->
          Alcotest.(check bool) "auto-dump disabled" false
            (Flight.auto_dump t2 ~reason:"x" ~now:0.0 ()));
      Alcotest.(check bool) "no file when disabled" false
        (Sys.file_exists (Flight.auto_dump_path t2)))

(* ------------------------------------------------------------------ *)
(* Recording is strictly observational *)

let run_workload ~record =
  in_cluster (fun cluster ->
      Flight.set_enabled (Cluster.flight cluster) record;
      let ctx0 = Ctx.make cluster ~node:0 in
      let ctx1 = Ctx.make cluster ~node:1 in
      let o = P.create_on ctx0 ~node:0 ~size:64 (pack 1) in
      let r = P.borrow_imm ctx1 o in
      ignore (P.imm_deref ctx1 r);
      P.drop_imm ctx1 r;
      P.owner_write ctx0 o (pack 2);
      P.transfer ctx0 o ~to_node:2;
      let v = Univ.unpack_exn int_tag (P.owner_read ctx0 o) in
      P.drop_owner ctx0 o;
      (v, Cluster.now cluster))

let test_recording_is_observational () =
  let on = run_workload ~record:true in
  let off = run_workload ~record:false in
  Alcotest.(check bool) "identical result and virtual time" true (on = off)

(* ------------------------------------------------------------------ *)
(* The seeded regression: violation -> dump -> timeline, no re-run *)

let test_seeded_violation_dump_explains_object () =
  in_temp_dump_dir (fun _dir ->
      let dump_path, phys =
        in_cluster (fun cluster ->
            let fl = Cluster.flight cluster in
            Flight.set_label fl "flight-regression";
            let ctx0 = Ctx.make cluster ~node:0 in
            let ctx1 = Ctx.make cluster ~node:1 in
            (* The real workload the black box witnesses: create on node
               0, a remote fetch caches a copy on node 1, then a color
               bump strands it. *)
            let o = P.create_on ctx0 ~node:0 ~size:64 (pack 1) in
            let r = P.borrow_imm ctx1 o in
            ignore (P.imm_deref ctx1 r);
            P.drop_imm ctx1 r;
            P.owner_write ctx0 o (pack 2);
            let g = P.gaddr o in
            let phys = Gaddr.to_int (Gaddr.clear_color g) in
            (* Inject the corrupted observation stream (a read served
               from the stale pre-bump copy) into a sanitizer attached
               to this same cluster: DSan must flag it AND the flight
               recorder must auto-write the dump naming this object. *)
            let t = Dsan.attach cluster in
            Fun.protect
              ~finally:(fun () -> Dsan.detach t)
              (fun () ->
                let ev ~time ~node ~thread kind ~b ~c ~d =
                  Dsan.observe t ~time ~node ~thread ~kind ~a:phys ~b ~c ~d
                in
                ev ~time:1e-5 ~node:0 ~thread:0 Flight.k_create ~b:0 ~c:0
                  ~d:64;
                ev ~time:1.1e-5 ~node:1 ~thread:(-1) Flight.k_cache_insert
                  ~b:0 ~c:0 ~d:64;
                ev ~time:1.2e-5 ~node:0 ~thread:0 Flight.k_write_bump ~b:phys
                  ~c:1 ~d:0;
                (* a read served from the copy cached under color 0 *)
                ev ~time:1.3e-5 ~node:1 ~thread:2 Flight.k_read_cached ~b:0
                  ~c:1 ~d:0;
                Alcotest.(check bool) "sanitizer flagged the injection"
                  true
                  (Dsan.violations t <> []));
            (Flight.auto_dump_path fl, phys))
      in
      Alcotest.(check bool) "violation auto-wrote the dump" true
        (Sys.file_exists dump_path);
      (* Everything below uses the dump alone — no cluster, no re-run. *)
      match Flight.load ~path:dump_path with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok d ->
          Alcotest.(check (option int)) "offending object recorded"
            (Some phys) d.Flight.dm_object;
          Alcotest.(check bool) "reason names the invariant" true
            (contains ~affix:"stale_cache_read" d.Flight.dm_reason);
          Alcotest.(check bool) "causal slice extracted" true
            (d.Flight.dm_slice <> []);
          let lines = Flight.explain_object ~object_:phys d.Flight.dm_events in
          check_line "creation witnessed" ~affix:"create" lines;
          check_line "the remote fetch" ~affix:"read_fetch" lines;
          check_line "the color bump" ~affix:"write_bump" lines;
          Alcotest.(check bool) "staleness attributed to node 1" true
            (List.exists
               (fun l ->
                 contains ~affix:"went stale" l && contains ~affix:"[1]" l)
               lines);
          check_line "the violation marker"
            ~affix:"DSan flagged this object here" lines;
          check_line "ownership resolved" ~affix:"last known owner: node 0"
            lines)

let () =
  Alcotest.run "flight"
    [
      ( "kinds",
        [
          Alcotest.test_case "pins protocol op codes" `Quick
            test_kind_table_pins_protocol_codes;
        ] );
      ( "ring",
        [
          Alcotest.test_case "wraps and merges" `Quick
            test_ring_wraps_and_merges;
        ] );
      ( "subscriber",
        [
          Alcotest.test_case "one slot, fed every event" `Quick
            test_subscriber_slot;
          Alcotest.test_case "counters agree with event kinds" `Quick
            test_counters_agree_with_kinds;
        ] );
      ( "codec",
        [ Alcotest.test_case "dump roundtrip" `Quick test_dump_roundtrip ] );
      ( "timeline",
        [
          Alcotest.test_case "explain_object" `Quick
            test_explain_object_timeline;
        ] );
      ( "auto-dump",
        [
          Alcotest.test_case "guard dumps + re-raises" `Quick
            test_guard_dumps_and_reraises;
        ] );
      ( "bit-identity",
        [
          Alcotest.test_case "recording is observational" `Quick
            test_recording_is_observational;
        ] );
      ( "regression",
        [
          Alcotest.test_case "seeded violation -> dump -> timeline" `Quick
            test_seeded_violation_dump_explains_object;
        ] );
    ]
