(* Tests for the discrete-event engine: virtual time, process scheduling,
   blocking primitives, mailboxes and resources. *)

module Engine = Drust_sim.Engine
module Mailbox = Drust_sim.Mailbox
module Resource = Drust_sim.Resource
module Fabric = Drust_net.Fabric
module Model = Drust_net.Model

let checkf = Alcotest.check (Alcotest.float 1e-12)

let test_clock_starts_at_zero () =
  let e = Engine.create () in
  checkf "t=0" 0.0 (Engine.now e)

let test_schedule_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~at:2.0 (fun () -> log := "b" :: !log);
  Engine.schedule e ~at:1.0 (fun () -> log := "a" :: !log);
  Engine.schedule e ~at:3.0 (fun () -> log := "c" :: !log);
  Engine.run e;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log);
  checkf "final time" 3.0 (Engine.now e)

let test_same_time_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 0 to 9 do
    Engine.schedule e ~at:1.0 (fun () -> log := i :: !log)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] (List.rev !log)

let test_schedule_past_rejected () =
  let e = Engine.create () in
  Engine.schedule e ~at:5.0 (fun () ->
      Alcotest.(check bool) "raises" true
        (try
           Engine.schedule e ~at:1.0 (fun () -> ());
           false
         with Invalid_argument _ -> true));
  Engine.run e

let test_delay () =
  let e = Engine.create () in
  let finished = ref (-1.0) in
  ignore
    (Engine.spawn e (fun () ->
         Engine.delay e 1.5;
         Engine.delay e 0.5;
         finished := Engine.now e));
  Engine.run e;
  checkf "delays add" 2.0 !finished

let test_spawn_at () =
  let e = Engine.create () in
  let started = ref (-1.0) in
  ignore (Engine.spawn ~at:4.0 e (fun () -> started := Engine.now e));
  Engine.run e;
  checkf "starts at 4" 4.0 !started

let test_join () =
  let e = Engine.create () in
  let order = ref [] in
  let child =
    Engine.spawn e (fun () ->
        Engine.delay e 1.0;
        order := "child" :: !order)
  in
  ignore
    (Engine.spawn e (fun () ->
         Engine.join e child;
         order := "parent" :: !order));
  Engine.run e;
  Alcotest.(check (list string)) "join order" [ "child"; "parent" ] (List.rev !order)

let test_join_already_done () =
  let e = Engine.create () in
  let child = Engine.spawn e (fun () -> ()) in
  let joined = ref false in
  ignore
    (Engine.spawn ~at:1.0 e (fun () ->
         Engine.join e child;
         joined := true));
  Engine.run e;
  Alcotest.(check bool) "joined" true !joined

let test_process_failure_propagates () =
  let e = Engine.create () in
  ignore (Engine.spawn e (fun () -> failwith "boom"));
  Alcotest.(check bool) "run raises Process_failure" true
    (try
       Engine.run e;
       false
     with Engine.Process_failure (Failure msg) -> String.equal msg "boom")

let test_join_reraises () =
  let e = Engine.create () in
  let child = Engine.spawn e (fun () -> failwith "child-died") in
  let saw = ref false in
  ignore
    (Engine.spawn ~at:1.0 e (fun () ->
         try Engine.join e child
         with Engine.Process_failure (Failure msg) when String.equal msg "child-died" ->
           saw := true));
  (try Engine.run e with Engine.Process_failure _ -> ());
  Alcotest.(check bool) "join re-raised" true !saw

let test_yield_interleaves () =
  let e = Engine.create () in
  let log = ref [] in
  let worker name =
    Engine.spawn e (fun () ->
        for i = 1 to 3 do
          log := Printf.sprintf "%s%d" name i :: !log;
          Engine.yield e
        done)
  in
  ignore (worker "a");
  ignore (worker "b");
  Engine.run e;
  Alcotest.(check (list string)) "interleaved"
    [ "a1"; "b1"; "a2"; "b2"; "a3"; "b3" ]
    (List.rev !log)

let test_run_until () =
  let e = Engine.create () in
  let fired = ref 0 in
  Engine.schedule e ~at:1.0 (fun () -> incr fired);
  Engine.schedule e ~at:10.0 (fun () -> incr fired);
  Engine.run ~until:5.0 e;
  Alcotest.(check int) "only first fired" 1 !fired;
  Alcotest.(check int) "one pending" 1 (Engine.pending_events e)

(* ------------------------------------------------------------------ *)
(* Mailbox *)

let test_mailbox_send_then_recv () =
  let e = Engine.create () in
  let mb = Mailbox.create e in
  let got = ref 0 in
  Mailbox.send mb 42;
  ignore (Engine.spawn e (fun () -> got := Mailbox.recv mb));
  Engine.run e;
  Alcotest.(check int) "received" 42 !got

let test_mailbox_recv_blocks () =
  let e = Engine.create () in
  let mb = Mailbox.create e in
  let got_at = ref (-1.0) in
  ignore
    (Engine.spawn e (fun () ->
         ignore (Mailbox.recv mb);
         got_at := Engine.now e));
  ignore
    (Engine.spawn e (fun () ->
         Engine.delay e 2.0;
         Mailbox.send mb "late"));
  Engine.run e;
  checkf "woke at send time" 2.0 !got_at

let test_mailbox_fifo () =
  let e = Engine.create () in
  let mb = Mailbox.create e in
  let got = ref [] in
  List.iter (Mailbox.send mb) [ 1; 2; 3 ];
  ignore
    (Engine.spawn e (fun () ->
         for _ = 1 to 3 do
           got := Mailbox.recv mb :: !got
         done));
  Engine.run e;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !got)

let test_mailbox_multiple_receivers () =
  let e = Engine.create () in
  let mb = Mailbox.create e in
  let got = ref [] in
  for _ = 1 to 2 do
    ignore
      (Engine.spawn e (fun () ->
           (* Bind before consing: the recv suspends, and [!got] must be
              read after resumption. *)
           let v = Mailbox.recv mb in
           got := v :: !got))
  done;
  ignore
    (Engine.spawn ~at:1.0 e (fun () ->
         Mailbox.send mb "x";
         Mailbox.send mb "y"));
  Engine.run e;
  Alcotest.(check int) "both served" 2 (List.length !got)

let test_mailbox_try_recv () =
  let e = Engine.create () in
  let mb = Mailbox.create e in
  Alcotest.(check (option int)) "empty" None (Mailbox.try_recv mb);
  Mailbox.send mb 5;
  Alcotest.(check (option int)) "nonempty" (Some 5) (Mailbox.try_recv mb)

(* ------------------------------------------------------------------ *)
(* Resource *)

let test_resource_serializes () =
  let e = Engine.create () in
  let r = Resource.create e ~capacity:1 in
  let finish = ref [] in
  let worker name =
    Engine.spawn e (fun () ->
        Resource.use r (fun () -> Engine.delay e 1.0);
        finish := (name, Engine.now e) :: !finish)
  in
  ignore (worker "a");
  ignore (worker "b");
  Engine.run e;
  (* Capacity 1: the second worker finishes one second after the first. *)
  let times = List.sort compare (List.map snd !finish) in
  Alcotest.(check (list (float 1e-9))) "staggered" [ 1.0; 2.0 ] times

let test_resource_parallel_within_capacity () =
  let e = Engine.create () in
  let r = Resource.create e ~capacity:2 in
  let finish = ref [] in
  for _ = 1 to 2 do
    ignore
      (Engine.spawn e (fun () ->
           Resource.use r (fun () -> Engine.delay e 1.0);
           finish := Engine.now e :: !finish))
  done;
  Engine.run e;
  Alcotest.(check (list (float 1e-9))) "both at t=1" [ 1.0; 1.0 ] !finish

let test_resource_fifo_fairness () =
  let e = Engine.create () in
  let r = Resource.create e ~capacity:1 in
  let order = ref [] in
  for i = 0 to 4 do
    ignore
      (Engine.spawn e (fun () ->
           Resource.use r (fun () -> Engine.delay e 0.1);
           order := i :: !order))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo" [ 0; 1; 2; 3; 4 ] (List.rev !order)

let test_resource_release_unheld () =
  let e = Engine.create () in
  let r = Resource.create e ~capacity:1 in
  Alcotest.(check bool) "raises" true
    (try
       Resource.release r;
       false
     with Invalid_argument _ -> true)

let test_resource_utilization () =
  let e = Engine.create () in
  let r = Resource.create e ~capacity:2 in
  ignore
    (Engine.spawn e (fun () ->
         Resource.use r (fun () -> Engine.delay e 1.0);
         Engine.delay e 1.0));
  Engine.run e;
  (* One of two cores busy for 1s out of a 2s window = 0.25. *)
  let u = Resource.utilization r ~now:(Engine.now e) in
  Alcotest.(check (float 1e-9)) "utilization" 0.25 u

let test_resource_exception_releases () =
  let e = Engine.create () in
  let r = Resource.create e ~capacity:1 in
  ignore
    (Engine.spawn e (fun () ->
         (try Resource.use r (fun () -> failwith "inner") with Failure _ -> ());
         Alcotest.(check int) "released" 0 (Resource.in_use r)));
  Engine.run e

let test_schedule_nan_rejected () =
  let e = Engine.create () in
  Alcotest.check_raises "schedule"
    (Invalid_argument "Engine.schedule: at is NaN") (fun () ->
      Engine.schedule e ~at:Float.nan ignore);
  Alcotest.(check int) "nothing queued" 0 (Engine.pending_events e)

let test_delay_nan_rejected () =
  let e = Engine.create () in
  let raised = ref None in
  ignore
    (Engine.spawn e (fun () ->
         try Engine.delay e Float.nan
         with Invalid_argument msg -> raised := Some msg));
  Engine.run e;
  Alcotest.(check (option string)) "delay" (Some "Engine.delay: NaN delay")
    !raised

(* An infinite delay is legal: the process parks forever. *)
let test_delay_infinity_parks () =
  let e = Engine.create () in
  let woke = ref false in
  ignore
    (Engine.spawn e (fun () ->
         Engine.delay e Float.infinity;
         woke := true));
  Engine.run ~until:1.0 e;
  Alcotest.(check bool) "still parked" false !woke;
  Alcotest.(check int) "live" 1 (Engine.live_processes e)

(* A resumer handed out by [suspend] is one-shot: the second call fails
   in the caller, and the parked process continues once. *)
let test_double_resume_fails () =
  let e = Engine.create () in
  let resumer = ref None in
  let resumed = ref 0 in
  ignore
    (Engine.spawn e (fun () ->
         let v = Engine.suspend e (fun resume -> resumer := Some resume) in
         resumed := !resumed + v));
  ignore
    (Engine.spawn ~at:1.0 e (fun () ->
         let resume = Option.get !resumer in
         resume 1;
         resume 2));
  Alcotest.check_raises "second resume"
    (Engine.Process_failure (Failure "Engine: process resumed twice"))
    (fun () -> Engine.run e);
  Alcotest.(check int) "continued once, with the first value" 1 !resumed

(* ------------------------------------------------------------------ *)
(* Dispatch order *)

(* Every blocking primitive in one run: delays, yields, joins, a
   contended resource, a mailbox receive that blocks and one that does
   not, and two fabric RPCs raced against their timers (one settles, one
   expires and leaves its helper running).  The (virtual time, process,
   step) trace and the engine's event and push counts are pinned to the
   values of the engine before processes parked on a preallocated
   record: the park mechanism may change host cost only, never the
   order, the timing or the number of events. *)
let test_dispatch_order_pinned () =
  let e = Engine.create () in
  let model = { Model.infiniband_40g with Model.jitter = 0.0 } in
  let fabric =
    Fabric.create ~engine:e ~rng:(Drust_util.Rng.create ~seed:1) ~model
      ~nodes:2 ()
  in
  let r = Resource.create e ~capacity:1 in
  let mb = Mailbox.create e in
  let trace = ref [] in
  let log name step =
    trace := Printf.sprintf "%.9g %s %d" (Engine.now e) name step :: !trace
  in
  let a =
    Engine.spawn e (fun () ->
        log "a" 0;
        Engine.delay e 1e-6;
        log "a" 1;
        Resource.use r (fun () ->
            log "a" 2;
            Engine.delay e 2e-6);
        log "a" 3;
        Engine.yield e;
        log "a" 4;
        let v = Mailbox.recv mb in
        log "a" (10 + v);
        let w = Mailbox.recv mb in
        log "a" (10 + w))
  in
  let b =
    Engine.spawn e (fun () ->
        log "b" 0;
        Resource.use r (fun () ->
            log "b" 1;
            Engine.delay e 1e-6);
        log "b" 2;
        Mailbox.send mb 1;
        Engine.yield e;
        log "b" 3;
        let v =
          Fabric.rpc_with_timeout fabric ~from:0 ~target:1 ~req_bytes:64
            ~resp_bytes:64 ~timeout:1e-3 (fun () ->
              log "b" 4;
              5)
        in
        log "b" v;
        Mailbox.send mb 2;
        (try
           Fabric.rpc_with_timeout fabric ~from:1 ~target:0 ~req_bytes:64
             ~resp_bytes:64 ~timeout:1e-6 (fun () ->
               log "b" 6;
               Engine.delay e 1e-6;
               log "b" 7)
         with Fabric.Rpc_timeout _ -> log "b" 8);
        Engine.delay e 20e-6;
        log "b" 9)
  in
  ignore
    (Engine.spawn e (fun () ->
         Engine.join e a;
         log "c" 0;
         Engine.join e b;
         log "c" 1));
  ignore
    (Engine.spawn ~at:1e-6 e (fun () ->
         for i = 0 to 2 do
           log "d" i;
           Resource.use r (fun () -> Engine.yield e)
         done));
  Engine.run e;
  Alcotest.(check (list string)) "trace"
    [
      "0 a 0"; "0 b 0"; "0 b 1"; "1e-06 d 0"; "1e-06 a 1"; "1e-06 b 2";
      "1e-06 b 3"; "1e-06 d 1"; "1e-06 a 2"; "3e-06 a 3"; "3e-06 a 4";
      "3e-06 a 11"; "3e-06 d 2"; "5.5128e-06 b 4"; "1.00256e-05 b 5";
      "1.00256e-05 a 12"; "1.00256e-05 c 0"; "1.10256e-05 b 8";
      "1.45384e-05 b 6"; "1.55384e-05 b 7"; "3.10256e-05 b 9";
      "3.10256e-05 c 1";
    ]
    (List.rev !trace);
  Alcotest.(check int) "dispatched" 46 (Engine.dispatched e);
  Alcotest.(check int) "pushes" 46 (Engine.pushes e)

(* ------------------------------------------------------------------ *)
(* Allocation guards: minor words per call on the hot path, measured
   over 100 k calls with [Gc.minor_words] inside one process after one
   warm-up call.  Allocation is deterministic, so each ceiling sits one
   word above the measured value: any boxing that creeps back in fails
   here rather than as a benchmark drift. *)

let alloc_calls = 100_000

(* [setup] runs inside the measuring process and returns the call to
   measure, so the call may block. *)
let words_per_call e setup =
  let per_call = ref Float.nan in
  ignore
    (Engine.spawn e (fun () ->
         let op = setup () in
         op ();
         let w0 = Gc.minor_words () in
         for _ = 1 to alloc_calls do
           op ()
         done;
         per_call := (Gc.minor_words () -. w0) /. Float.of_int alloc_calls));
  Engine.run e;
  !per_call

let check_words name ~limit w =
  if not (w <= limit) then
    Alcotest.failf "%s allocates %.1f minor words per call (limit %g)" name w
      limit

let delay_words () =
  let e = Engine.create () in
  words_per_call e (fun () () -> Engine.delay e 1e-6)

(* A yield allocates its continuation and nothing else (4 words); a
   delay also boxes its wake-up time and the clock it advances to (8).
   The closure-per-park engine allocated 40 and 37. *)
let test_park_allocation () =
  check_words "Engine.delay" ~limit:9.2 (delay_words ());
  let e = Engine.create () in
  check_words "Engine.yield" ~limit:5.0
    (words_per_call e (fun () () -> Engine.yield e))

(* Jitter stays on: the gaussian draw is part of every verb. *)
let test_fabric_allocation () =
  let fabric () =
    let e = Engine.create () in
    ( e,
      Fabric.create ~engine:e ~rng:(Drust_util.Rng.create ~seed:1)
        ~model:Model.infiniband_40g ~nodes:2 () )
  in
  let e, f = fabric () in
  check_words "Fabric.rdma_read" ~limit:13.3
    (words_per_call e (fun () () ->
         Fabric.rdma_read f ~from:0 ~target:1 ~bytes:512));
  let e, f = fabric () in
  check_words "Fabric.rpc" ~limit:25.3
    (words_per_call e (fun () () ->
         Fabric.rpc f ~from:0 ~target:1 ~req_bytes:64 ~resp_bytes:64 ignore))

let cluster () =
  Drust_machine.Cluster.create
    { Drust_machine.Params.default with Drust_machine.Params.nodes = 2 }

let test_ctx_allocation () =
  let c = cluster () in
  let module Ctx = Drust_machine.Ctx in
  let ctx = Ctx.make c ~node:0 in
  (* Below the flush grain a charge only accumulates; one call in 52
     flushes. *)
  check_words "Ctx.charge_cycles" ~limit:1.3
    (words_per_call (Drust_machine.Cluster.engine c) (fun () () ->
         Ctx.charge_cycles ctx 100.0));
  (* A compute always flushes: one core acquire, delay and release. *)
  check_words "Ctx.compute" ~limit:11.2
    (words_per_call (Drust_machine.Cluster.engine c) (fun () () ->
         Ctx.compute ctx ~cycles:100.0))

let test_metrics_allocation () =
  let h = Drust_obs.Metrics.histogram (Drust_obs.Metrics.create ()) "lat" in
  check_words "Metrics.observe" ~limit:1.0
    (words_per_call (Engine.create ()) (fun () () ->
         Drust_obs.Metrics.observe h 3e-6))

(* The clock advances between calls, so every acquire and release
   integrates utilisation; the delay's own words are subtracted. *)
let test_resource_allocation () =
  let e = Engine.create () in
  let r = Resource.create e ~capacity:1 in
  let w =
    words_per_call e (fun () () ->
        Engine.delay e 1e-6;
        Resource.acquire r;
        Resource.release r)
  in
  check_words "Resource.acquire/release" ~limit:1.0 (w -. delay_words ())

let test_grappa_allocation () =
  let c = cluster () in
  let module Grappa = Drust_grappa.Grappa in
  let g = Grappa.create c in
  let ctx = Drust_machine.Ctx.make c ~node:0 in
  let tag : int Drust_util.Univ.tag =
    Drust_util.Univ.create_tag ~name:"alloc"
  in
  check_words "remote Grappa.read" ~limit:67.1
    (words_per_call (Drust_machine.Cluster.engine c) (fun () ->
         let h =
           Grappa.alloc_on g ctx ~node:1 ~size:64 (Drust_util.Univ.pack tag 0)
         in
         fun () -> ignore (Grappa.read g ctx h)))

(* The DRust backend's Dsm verbs on 2 nodes, through the vtable the apps
   call: a local read, a read of a remote object whose copy is already in
   this node's cache, and a local update.  Each includes its immutable or
   mutable borrow, the measured protocol op and the drop. *)
let test_drust_allocation () =
  let tag : int Drust_util.Univ.tag =
    Drust_util.Univ.create_tag ~name:"alloc"
  in
  let words ~node op =
    let c = cluster () in
    let dsm = Drust_dsm.Drust_backend.create c in
    let ctx = Drust_machine.Ctx.make c ~node:0 in
    words_per_call (Drust_machine.Cluster.engine c) (fun () ->
        let h =
          dsm.Drust_dsm.Dsm.alloc_on ctx ~node ~size:64
            (Drust_util.Univ.pack tag 0)
        in
        fun () -> op dsm ctx h)
  in
  let read dsm ctx h = ignore (dsm.Drust_dsm.Dsm.read ctx h) in
  check_words "local DRust read" ~limit:13.81 (words ~node:0 read);
  (* The warm-up call fetches the copy; every measured read hits it. *)
  check_words "remote cached DRust read" ~limit:15.4
    (words ~node:1 read);
  check_words "local DRust update" ~limit:13.81
    (words ~node:0 (fun dsm ctx h -> dsm.Drust_dsm.Dsm.update ctx h Fun.id))

(* Property: however many processes contend, a resource never exceeds its
   capacity and always drains back to zero. *)
let prop_resource_capacity =
  QCheck.Test.make ~name:"resource never exceeds capacity" ~count:100
    QCheck.(pair (int_range 1 4) (list_of_size Gen.(1 -- 20) (int_range 1 5)))
    (fun (capacity, jobs) ->
      let e = Engine.create () in
      let r = Resource.create e ~capacity in
      let max_seen = ref 0 in
      List.iter
        (fun dur ->
          ignore
            (Engine.spawn e (fun () ->
                 Resource.use r (fun () ->
                     max_seen := max !max_seen (Resource.in_use r);
                     Engine.delay e (Float.of_int dur *. 0.01)))))
        jobs;
      Engine.run e;
      !max_seen <= capacity && Resource.in_use r = 0 && Resource.queued r = 0)

let () =
  Alcotest.run "sim"
    [
      ( "engine",
        [
          Alcotest.test_case "clock zero" `Quick test_clock_starts_at_zero;
          Alcotest.test_case "schedule order" `Quick test_schedule_order;
          Alcotest.test_case "same-time fifo" `Quick test_same_time_fifo;
          Alcotest.test_case "past rejected" `Quick test_schedule_past_rejected;
          Alcotest.test_case "delay" `Quick test_delay;
          Alcotest.test_case "spawn at" `Quick test_spawn_at;
          Alcotest.test_case "join" `Quick test_join;
          Alcotest.test_case "join done" `Quick test_join_already_done;
          Alcotest.test_case "failure propagates" `Quick test_process_failure_propagates;
          Alcotest.test_case "join re-raises" `Quick test_join_reraises;
          Alcotest.test_case "yield interleaves" `Quick test_yield_interleaves;
          Alcotest.test_case "run until" `Quick test_run_until;
          Alcotest.test_case "schedule nan rejected" `Quick
            test_schedule_nan_rejected;
          Alcotest.test_case "delay nan rejected" `Quick test_delay_nan_rejected;
          Alcotest.test_case "delay infinity parks" `Quick
            test_delay_infinity_parks;
          Alcotest.test_case "double resume fails" `Quick
            test_double_resume_fails;
          Alcotest.test_case "dispatch order pinned" `Quick
            test_dispatch_order_pinned;
          Alcotest.test_case "park allocation" `Quick test_park_allocation;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "fabric verbs" `Quick test_fabric_allocation;
          Alcotest.test_case "ctx charges" `Quick test_ctx_allocation;
          Alcotest.test_case "metrics observe" `Quick test_metrics_allocation;
          Alcotest.test_case "resource acquire/release" `Quick
            test_resource_allocation;
          Alcotest.test_case "remote grappa read" `Quick test_grappa_allocation;
          Alcotest.test_case "drust backend ops" `Quick test_drust_allocation;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "send then recv" `Quick test_mailbox_send_then_recv;
          Alcotest.test_case "recv blocks" `Quick test_mailbox_recv_blocks;
          Alcotest.test_case "fifo" `Quick test_mailbox_fifo;
          Alcotest.test_case "multi receivers" `Quick test_mailbox_multiple_receivers;
          Alcotest.test_case "try_recv" `Quick test_mailbox_try_recv;
        ] );
      ( "resource",
        [
          Alcotest.test_case "serializes" `Quick test_resource_serializes;
          Alcotest.test_case "parallel within capacity" `Quick
            test_resource_parallel_within_capacity;
          Alcotest.test_case "fifo fairness" `Quick test_resource_fifo_fairness;
          Alcotest.test_case "release unheld" `Quick test_resource_release_unheld;
          Alcotest.test_case "utilization" `Quick test_resource_utilization;
          Alcotest.test_case "exception releases" `Quick test_resource_exception_releases;
          QCheck_alcotest.to_alcotest prop_resource_capacity;
        ] );
    ]
