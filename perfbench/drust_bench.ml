(* drust_bench: the repository benchmark (perfbench/README.md).

   One process on one domain runs one of four closed batches of
   simulation cells, back to back:

   - fig5-8n     the paper's 11 Fig. 5 cells at 8 nodes plus the four
                 1-node Original baselines they are normalised by;
   - drust-read  DRust at 8 nodes, YCSB-C and GEMM;
   - drust-write DRust at 8 nodes, YCSB-A and YCSB-F;
   - churn       Simplan.churn_plan at 64 nodes over several plan seeds,
                 executed with the DSan sanitizer attached.

   The workload seed becomes the topology seed of every app cell and the
   base of the churn plan seeds.  Every layer is driven from outside,
   through public functions only: the app [run] functions over a
   [Dsm.t] this file wraps, [Simplan.execute], [Cluster.set_create_hook],
   engine and GC counters, metric snapshots, spans and the flight
   recorder's switch.

   [--trace 0] runs the batch untraced, again and again until
   [--seconds] have passed (the first pass always completes), and prints
   the end-to-end metrics.  [--trace 1] runs one untraced pass, one
   traced pass, one pass with the flight recorder off and, for churn,
   one pass without the sanitizer; it checks that the simulated results
   of all passes are identical and prints the per-layer metrics.

   Lines starting with "exact " hold the deterministic results of the
   first untraced pass; they must repeat bit for bit across processes
   and between trace modes (selftest.py compares them).  The last line
   of stdout is one JSON object with the keys correct, attempted,
   failed and metrics.  Any failed correctness check exits with 1. *)

module B = Drust_experiments.Bench_setup
module Fig5 = Drust_experiments.Fig5
module Simplan = Drust_plan.Simplan
module Scenario = Drust_plan.Scenario
module Cluster = Drust_machine.Cluster
module Params = Drust_machine.Params
module Ctx = Drust_machine.Ctx
module Dsm = Drust_dsm.Dsm
module Engine = Drust_sim.Engine
module Metrics = Drust_obs.Metrics
module Span = Drust_obs.Span
module Cp = Drust_obs.Critical_path
module Flight = Drust_obs.Flight
module Appkit = Drust_appkit.Appkit
module Stats = Drust_util.Stats
module Zipf = Drust_util.Zipf
module Ycsb = Drust_workloads.Ycsb
module Gemm = Drust_gemm.Gemm
module Dataframe = Drust_dataframe.Dataframe
module Socialnet = Drust_socialnet.Socialnet
module Kvstore = Drust_kvstore.Kvstore

let host_now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Sizes and cells                                                      *)

(* [Tiny] shrinks every cell so selftest.py can run all four workloads
   in seconds; [Full] is the benchmark proper. *)
type size = Full | Tiny

type cell =
  | App of { app : B.app; system : B.system; nodes : int }
  | Ycsb_cell of { mix : Ycsb.workload; nodes : int }
  | Churn of { plan_seed : int; nodes : int }

let gemm_cfg = function
  | Full -> Gemm.default_config
  | Tiny -> { Gemm.default_config with Gemm.grid = 4; strips = 8 }

(* Simplan runs DataFrame with the TBox annotations off unless asked;
   so does Fig. 5. *)
let dataframe_cfg size =
  let c =
    {
      Dataframe.default_config with
      Dataframe.use_tbox = false;
      use_spawn_to = false;
    }
  in
  match size with
  | Full -> c
  | Tiny -> { c with Dataframe.partitions = 16; queries = 2 }

let socialnet_cfg size ~pass_by_value =
  let c = { Socialnet.default_config with Socialnet.pass_by_value } in
  match size with
  | Full -> c
  | Tiny -> { c with Socialnet.users = 200; requests = 256 }

let kv_cfg = function
  | Full -> Kvstore.default_config
  | Tiny ->
      { Kvstore.default_config with Kvstore.keys = 10_000; buckets = 256; ops = 1024 }

(* YCSB cells run ten times the stock 24 k operations of the ycsb
   experiment, so the measured phase outweighs building the 4 M-key
   Zipf table.  A multiple of the 128 clients of an 8-node testbed. *)
let ycsb_ops = function Full -> 240_128 | Tiny -> 1024

let ycsb_cfg size mix =
  { (kv_cfg size) with Kvstore.workload = Some mix; ops = ycsb_ops size }

let churn_nodes = function Full -> 64 | Tiny -> 16

(* Churn's p99 op latency lies in the histogram's 5-10 us bucket, whose
   upper edge [Metrics.quantile] clamps to the largest sample.  About one
   plan in nine has a sample above 10 us; across six plans the merged p99
   therefore flipped between about 7.8 and 9.8 us with the seed.  With
   32 plans almost every seed has such a sample, and the figure holds. *)
let churn_seeds = function Full -> 32 | Tiny -> 1

let mix_letter mix = String.make 1 (Ycsb.workload_name mix).[0]

let label = function
  | App { app; system; nodes } ->
      Printf.sprintf "%s/%s/%dn"
        (String.map (fun c -> if c = ' ' then '-' else c) (B.app_name app))
        (B.system_name system) nodes
  | Ycsb_cell { mix; nodes } ->
      Printf.sprintf "YCSB-%s/DRust/%dn" (mix_letter mix) nodes
  | Churn { plan_seed; nodes } -> Printf.sprintf "churn/%dn/seed%d" nodes plan_seed

(* The backend whose code a cell runs, for per-backend attribution.
   Churn drives the runtime layer directly, not through a [Dsm.t]. *)
let backend_names = [ "drust"; "gam"; "grappa"; "local" ]

let backend_of = function
  | App { system = B.Drust; _ } | Ycsb_cell _ -> Some "drust"
  | App { system = B.Gam; _ } -> Some "gam"
  | App { system = B.Grappa; _ } -> Some "grappa"
  | App { system = B.Original; _ } -> Some "local"
  | Churn _ -> None

let workloads = [ "fig5-8n"; "drust-read"; "drust-write"; "churn" ]

let cells_of ~size ~seed = function
  | "fig5-8n" ->
      List.map (fun app -> App { app; system = B.Original; nodes = 1 }) B.all_apps
      @ List.map
          (fun (app, system, _) -> App { app; system; nodes = 8 })
          Fig5.paper_8node
  | "drust-read" ->
      [ Ycsb_cell { mix = Ycsb.C; nodes = 8 }; App { app = B.Gemm_app; system = B.Drust; nodes = 8 } ]
  | "drust-write" ->
      [ Ycsb_cell { mix = Ycsb.A; nodes = 8 }; Ycsb_cell { mix = Ycsb.F; nodes = 8 } ]
  | "churn" ->
      let k = churn_seeds size in
      List.init k (fun i -> Churn { plan_seed = (seed * k) + i; nodes = churn_nodes size })
  | w -> invalid_arg ("unknown workload " ^ w)

let kv_expected (c : Kvstore.config) ~nodes =
  let cores = (B.testbed ~nodes ()).Params.cores_per_node in
  let clients = nodes * min c.Kvstore.clients_per_node cores in
  max 1 (c.Kvstore.ops / clients) * clients

(* Operations a cell must complete, derived from its configuration the
   way each app divides work over its clients. *)
let expected_ops size = function
  | App { app = B.Gemm_app; _ } ->
      let c = gemm_cfg size in
      c.Gemm.multiplies * c.Gemm.grid * c.Gemm.grid * c.Gemm.grid
  | App { app = B.Dataframe_app; _ } -> (dataframe_cfg size).Dataframe.queries
  | App { app = B.Socialnet_app; system; nodes } ->
      let c = socialnet_cfg size ~pass_by_value:(system = B.Original) in
      let clients = nodes * c.Socialnet.clients_per_node in
      max 1 (c.Socialnet.requests / clients) * clients
  | App { app = B.Kvstore_app; nodes; _ } -> kv_expected (kv_cfg size) ~nodes
  | Ycsb_cell { mix; nodes } -> kv_expected (ycsb_cfg size mix) ~nodes
  | Churn _ -> 0

(* ------------------------------------------------------------------ *)
(* The Dsm.t wrapper                                                    *)

let dsm_ops =
  [|
    "alloc"; "alloc_on"; "read"; "write"; "update"; "free"; "read_part";
    "process"; "process_update"; "tie"; "mutex_create"; "mutex_lock";
    "mutex_unlock";
  |]

(* Calls and exact virtual durations per wrapped op, kept only in the
   traced pass. *)
type ledger = { calls : int array; virt : Stats.t array }

let new_ledger () =
  {
    calls = Array.make (Array.length dsm_ops) 0;
    virt = Array.init (Array.length dsm_ops) (fun _ -> Stats.create ());
  }

type probe = {
  mutable first_access : float;  (** host time of the first data access *)
  ledger : ledger option;
}

(* The untraced path adds one float test per call and allocates
   nothing; the first data access stamps the end of set-up. *)
let wrap probe (d : Dsm.t) : Dsm.t =
  let touch () =
    if Float.is_nan probe.first_access then probe.first_access <- host_now ()
  in
  let timed l i ctx f =
    let engine = Ctx.engine ctx in
    let t0 = Engine.now engine in
    let r = f () in
    l.calls.(i) <- l.calls.(i) + 1;
    Stats.add l.virt.(i) (Engine.now engine -. t0);
    r
  in
  {
    d with
    Dsm.alloc =
      (fun ctx ~size v ->
        match probe.ledger with
        | None -> d.Dsm.alloc ctx ~size v
        | Some l -> timed l 0 ctx (fun () -> d.Dsm.alloc ctx ~size v));
    alloc_on =
      (fun ctx ~node ~size v ->
        match probe.ledger with
        | None -> d.Dsm.alloc_on ctx ~node ~size v
        | Some l -> timed l 1 ctx (fun () -> d.Dsm.alloc_on ctx ~node ~size v));
    read =
      (fun ctx h ->
        touch ();
        match probe.ledger with
        | None -> d.Dsm.read ctx h
        | Some l -> timed l 2 ctx (fun () -> d.Dsm.read ctx h));
    write =
      (fun ctx h v ->
        touch ();
        match probe.ledger with
        | None -> d.Dsm.write ctx h v
        | Some l -> timed l 3 ctx (fun () -> d.Dsm.write ctx h v));
    update =
      (fun ctx h f ->
        touch ();
        match probe.ledger with
        | None -> d.Dsm.update ctx h f
        | Some l -> timed l 4 ctx (fun () -> d.Dsm.update ctx h f));
    free =
      (fun ctx h ->
        touch ();
        match probe.ledger with
        | None -> d.Dsm.free ctx h
        | Some l -> timed l 5 ctx (fun () -> d.Dsm.free ctx h));
    read_part =
      (fun ctx h ~bytes ->
        touch ();
        match probe.ledger with
        | None -> d.Dsm.read_part ctx h ~bytes
        | Some l -> timed l 6 ctx (fun () -> d.Dsm.read_part ctx h ~bytes));
    process =
      (fun ctx h ~cycles ->
        touch ();
        match probe.ledger with
        | None -> d.Dsm.process ctx h ~cycles
        | Some l -> timed l 7 ctx (fun () -> d.Dsm.process ctx h ~cycles));
    process_update =
      (fun ctx h ~cycles f ->
        touch ();
        match probe.ledger with
        | None -> d.Dsm.process_update ctx h ~cycles f
        | Some l -> timed l 8 ctx (fun () -> d.Dsm.process_update ctx h ~cycles f));
    tie =
      (fun ctx ~parent ~child ->
        match probe.ledger with
        | None -> d.Dsm.tie ctx ~parent ~child
        | Some l -> timed l 9 ctx (fun () -> d.Dsm.tie ctx ~parent ~child));
    mutex_create =
      (fun ctx ->
        match probe.ledger with
        | None -> d.Dsm.mutex_create ctx
        | Some l -> timed l 10 ctx (fun () -> d.Dsm.mutex_create ctx));
    mutex_lock =
      (fun ctx m ->
        touch ();
        match probe.ledger with
        | None -> d.Dsm.mutex_lock ctx m
        | Some l -> timed l 11 ctx (fun () -> d.Dsm.mutex_lock ctx m));
    mutex_unlock =
      (fun ctx m ->
        match probe.ledger with
        | None -> d.Dsm.mutex_unlock ctx m
        | Some l -> timed l 12 ctx (fun () -> d.Dsm.mutex_unlock ctx m));
  }

(* ------------------------------------------------------------------ *)
(* Running one cell                                                     *)

type mode = {
  spans : bool;  (** span tracer on, Dsm.t ledger kept *)
  flight : bool;  (** flight recorder on (the default) *)
  sanitize : bool;  (** DSan attached (churn only) *)
}

let untraced = { spans = false; flight = true; sanitize = true }

type outcome = {
  cell : cell;
  attempted : int;  (** configured ops; for churn, the ops its clients issued *)
  ops : int;  (** ops completed (churn: acknowledged after retries) *)
  failed : int;
  setup_s : float;
  run_s : float;
  alloc_words : float;
  elapsed : float;  (** virtual seconds of the measured phase *)
  latency : Metrics.histo option;  (** merged protocol.op_latency *)
  snapshot : Metrics.snapshot;
  events : int;
  pushes : int;
  churn : Scenario.churn_result option;
  violations : int;
  errors : string list;
  ledger : ledger option;
  cp : float array;  (** critical-path seconds per segment (traced) *)
}

let cp_of_spans spans =
  let acc = Array.make (List.length Cp.all_segments) 0.0 in
  List.iter
    (fun p ->
      List.iteri
        (fun i seg -> acc.(i) <- acc.(i) +. List.assoc seg p.Cp.segments)
        Cp.all_segments)
    (Cp.analyze (Span.events spans));
  acc

let no_cp () = Array.make (List.length Cp.all_segments) 0.0

let observe_cluster mode c =
  if mode.spans then Span.enable (Cluster.spans c);
  if not mode.flight then Flight.set_enabled (Cluster.flight c) false

let run_body size ~cluster ~backend = function
  | App { app = B.Dataframe_app; _ } ->
      Dataframe.run ~cluster ~backend (dataframe_cfg size)
  | App { app = B.Socialnet_app; system; _ } ->
      Socialnet.run ~cluster ~backend
        (socialnet_cfg size ~pass_by_value:(system = B.Original))
  | App { app = B.Gemm_app; _ } -> Gemm.run ~cluster ~backend (gemm_cfg size)
  | App { app = B.Kvstore_app; _ } -> Kvstore.run ~cluster ~backend (kv_cfg size)
  | Ycsb_cell { mix; _ } -> Kvstore.run ~cluster ~backend (ycsb_cfg size mix)
  | Churn _ -> invalid_arg "run_body: churn runs through Simplan"

let run_app_cell size mode ~seed cell =
  let nodes, system =
    match cell with
    | App { nodes; system; _ } -> (nodes, system)
    | Ycsb_cell { nodes; _ } -> (nodes, B.Drust)
    | Churn _ -> invalid_arg "run_app_cell"
  in
  let name = label cell in
  let probe =
    { first_access = nan; ledger = (if mode.spans then Some (new_ledger ()) else None) }
  in
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  let t0 = host_now () in
  let cluster = Cluster.create (B.testbed ~nodes ~seed ()) in
  observe_cluster mode cluster;
  let backend = wrap probe (B.make_backend system cluster) in
  let result =
    match run_body size ~cluster ~backend cell with
    | r -> Ok r
    | exception e -> Error (Printexc.to_string e)
  in
  let t1 = host_now () in
  let w1 = Gc.minor_words () in
  let first = if Float.is_nan probe.first_access then t1 else probe.first_access in
  let snapshot = Metrics.snapshot (Cluster.metrics cluster) in
  let engine = Cluster.engine cluster in
  let expected = expected_ops size cell in
  let ops, elapsed, errors =
    match result with
    | Ok r ->
        let ops = int_of_float r.Appkit.ops in
        ( ops,
          r.Appkit.elapsed,
          if ops <> expected then
            [ Printf.sprintf "%s: completed %d ops, configured %d" name ops expected ]
          else [] )
    | Error msg -> (0, 0.0, [ Printf.sprintf "%s raised %s" name msg ])
  in
  {
    cell;
    attempted = expected;
    ops;
    failed = (if errors = [] then 0 else expected);
    setup_s = first -. t0;
    run_s = t1 -. first;
    alloc_words = w1 -. w0;
    elapsed;
    latency = Metrics.merged_histo snapshot "protocol.op_latency";
    snapshot;
    events = Engine.dispatched engine;
    pushes = Engine.pushes engine;
    churn = None;
    violations = 0;
    errors;
    ledger = probe.ledger;
    cp = (if mode.spans then cp_of_spans (Cluster.spans cluster) else no_cp ());
  }

let run_churn_cell mode ~plan_seed ~nodes cell =
  let name = label cell in
  let created = ref None and hooked = ref nan in
  Gc.full_major ();
  Cluster.set_create_hook
    (Some
       (fun c ->
         if Option.is_none !created then begin
           hooked := host_now ();
           created := Some c;
           observe_cluster mode c
         end));
  let w0 = Gc.minor_words () in
  let t0 = host_now () in
  let result =
    match
      Simplan.execute ~sanitize:mode.sanitize
        (Simplan.churn_plan ~seed:plan_seed ~nodes ())
    with
    | o -> Ok o
    | exception e -> Error (Printexc.to_string e)
  in
  let t1 = host_now () in
  let w1 = Gc.minor_words () in
  Cluster.set_create_hook None;
  let first = if Float.is_nan !hooked then t1 else !hooked in
  let snapshot, events, pushes, cp =
    match !created with
    | Some c ->
        ( Metrics.snapshot (Cluster.metrics c),
          Engine.dispatched (Cluster.engine c),
          Engine.pushes (Cluster.engine c),
          if mode.spans then cp_of_spans (Cluster.spans c) else no_cp () )
    | None -> ([], 0, 0, no_cp ())
  in
  let duration = (Scenario.churn_spec_of ~nodes).Scenario.ch_duration in
  let base =
    {
      cell;
      attempted = 0;
      ops = 0;
      failed = 0;
      setup_s = first -. t0;
      run_s = t1 -. first;
      alloc_words = w1 -. w0;
      elapsed = duration;
      latency = None;
      snapshot;
      events;
      pushes;
      churn = None;
      violations = 0;
      errors = [];
      ledger = None;
      cp;
    }
  in
  match result with
  | Error msg -> { base with errors = [ Printf.sprintf "%s raised %s" name msg ] }
  | Ok { Simplan.result = Simplan.Churn_done r; violations; _ } ->
      let err cond msg = if cond then [ Printf.sprintf "%s: %s" name msg ] else [] in
      let errors =
        err (r.Scenario.total_ops <= 0) "no operations completed"
        @ err (r.Scenario.lost_writes > 0)
            (Printf.sprintf "%d lost committed writes" r.Scenario.lost_writes)
        @ err (r.Scenario.unreadable_keys > 0)
            (Printf.sprintf "%d unreadable keys" r.Scenario.unreadable_keys)
        @ err (r.Scenario.unrecoverable <> []) "unrecoverable ranges"
        @ err
            (List.length r.Scenario.detection < List.length r.Scenario.crashes)
            "the detector missed a crash"
        @ err (violations <> [])
            (Printf.sprintf "%d DSan violations" (List.length violations))
      in
      {
        base with
        attempted = r.Scenario.total_ops + r.Scenario.failed_ops;
        ops = r.Scenario.total_ops;
        failed =
          r.Scenario.failed_ops + r.Scenario.lost_writes + r.Scenario.unreadable_keys;
        latency = r.Scenario.op_latency;
        churn = Some r;
        violations = List.length violations;
        errors;
      }
  | Ok _ -> { base with errors = [ name ^ ": churn plan returned another outcome" ] }

let run_cell size mode ~seed cell =
  match cell with
  | Churn { plan_seed; nodes } -> run_churn_cell mode ~plan_seed ~nodes cell
  | App _ | Ycsb_cell _ -> run_app_cell size mode ~seed cell

(* ------------------------------------------------------------------ *)
(* Exactness                                                            *)

let count_names =
  [
    "fabric.reads"; "fabric.writes"; "fabric.rpcs"; "fabric.atomics";
    "fabric.retries"; "fabric.timeouts"; "fabric.drops"; "fabric.stale_epochs";
    "fabric.remote_ops"; "fabric.bytes_out"; "cache.hits"; "cache.misses";
    "cache.evictions"; "protocol.moves"; "protocol.color_bumps";
    "protocol.fetches"; "membership.joins"; "membership.leaves";
    "membership.handoff_commits"; "membership.handoff_aborts";
  ]

let op_count snapshot kind =
  match Metrics.find snapshot ~labels:[ ("op", kind) ] "protocol.op_latency" with
  | Some (Metrics.Histo h) -> h.Metrics.h_count
  | _ -> 0

let histo_signature = function
  | None -> "-"
  | Some h ->
      Printf.sprintf "%d:%h:%s" h.Metrics.h_count h.Metrics.h_sum
        (String.concat ","
           (List.map (fun (_, n) -> string_of_int n) h.Metrics.h_buckets))

(* Everything a pass must reproduce exactly: simulated results and every
   count.  Host times and allocation are not part of it (tracing
   allocates). *)
let signature o =
  String.concat " "
    ([
       string_of_int o.attempted;
       string_of_int o.ops;
       string_of_int o.failed;
       Printf.sprintf "%h" o.elapsed;
       histo_signature o.latency;
       string_of_int o.events;
       string_of_int o.pushes;
     ]
    @ List.map (fun n -> string_of_int (Metrics.total o.snapshot n)) count_names
    @ List.map
        (fun k -> string_of_int (op_count o.snapshot k))
        Drust_core.Protocol.op_latency_kinds)

(* ------------------------------------------------------------------ *)
(* Aggregation                                                          *)

let median xs =
  match List.sort Float.compare xs with
  | [] -> 0.0
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let sum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l
let mean xs = sum Fun.id xs /. float_of_int (max 1 (List.length xs))
let isum f l = List.fold_left (fun acc x -> acc + f x) 0 l

let geomean = function
  | [] -> 0.0
  | xs -> exp (sum log xs /. float_of_int (List.length xs))

let merged_latency outcomes =
  List.fold_left
    (fun acc o ->
      match (acc, o.latency) with
      | None, h | h, None -> h
      | Some a, Some b -> Some (Metrics.merge_histos a b))
    None outcomes

let quantile_us h q =
  match h with
  | None -> 0.0
  | Some h -> ( match Metrics.quantile h q with Some v -> v *. 1e6 | None -> 0.0)

let fidelity_err outcomes =
  let rate app system nodes =
    List.find_map
      (fun o ->
        match o.cell with
        | App c when c.app = app && c.system = system && c.nodes = nodes ->
            if o.elapsed > 0.0 then Some (float_of_int o.ops /. o.elapsed) else None
        | _ -> None)
      outcomes
  in
  let errs =
    List.filter_map
      (fun (app, system, paper) ->
        match (rate app system 8, rate app B.Original 1) with
        | Some r, Some base -> Some (Float.abs (log (r /. base /. paper)))
        | _ -> None)
      Fig5.paper_8node
  in
  if List.length errs = List.length Fig5.paper_8node then
    Some (sum Fun.id errs /. float_of_int (List.length errs))
  else None

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* ------------------------------------------------------------------ *)
(* Output                                                               *)

type metric = { name : string; value : float; unit_ : string }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
             (json_number m.value) m.unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

let print_cell o =
  Printf.printf
    "cell %-26s setup_s=%.4f run_s=%.4f alloc_mwords=%.3f ops=%d/%d \
     sim_ops_per_sim_s=%.6g\n"
    (label o.cell) o.setup_s o.run_s (o.alloc_words /. 1e6) o.ops o.attempted
    (if o.elapsed > 0.0 then float_of_int o.ops /. o.elapsed else 0.0)

let sim_rates first =
  List.filter_map
    (fun o ->
      if o.elapsed > 0.0 && o.ops > 0 then Some (float_of_int o.ops /. o.elapsed)
      else None)
    first

(* The deterministic end-to-end metrics: functions of the first untraced
   pass alone.  fidelity_err (fig5-8n only) and failed_frac are printed
   but stay out of the result object: the first exists for one workload,
   the second is carried by the object's attempted and failed fields. *)
let exact_metrics workload first =
  let lat = merged_latency first in
  let attempted = isum (fun o -> o.attempted) first in
  let failed = isum (fun o -> o.failed) first in
  [
    { name = "alloc_mwords"; value = sum (fun o -> o.alloc_words) first /. 1e6; unit_ = "Mwords" };
    { name = "sim_ops_per_sim_s"; value = geomean (sim_rates first); unit_ = "ops/virt_s" };
    { name = "sim_p50_us"; value = quantile_us lat 0.5; unit_ = "virt_us" };
    { name = "sim_p99_us"; value = quantile_us lat 0.99; unit_ = "virt_us" };
    {
      name = "sim_latency_samples";
      value = (match lat with Some h -> float_of_int h.Metrics.h_count | None -> 0.0);
      unit_ = "count";
    };
  ]
  @ (match (workload, fidelity_err first) with
    | "fig5-8n", Some e -> [ { name = "fidelity_err"; value = e; unit_ = "ratio" } ]
    | _ -> [])
  @ [
      {
        name = "failed_frac";
        value =
          (if attempted > 0 then float_of_int failed /. float_of_int attempted else 1.0);
        unit_ = "ratio";
      };
    ]

(* Printed identically in both trace modes. *)
let print_exact workload first =
  List.iter
    (fun o ->
      Printf.printf "exact cell.%s %s\n" (label o.cell) (signature o);
      Printf.printf "exact alloc.%s %.0f words\n" (label o.cell) o.alloc_words)
    first;
  List.iter
    (fun m -> Printf.printf "exact %s %.17g %s\n" m.name m.value m.unit_)
    (exact_metrics workload first)

(* ------------------------------------------------------------------ *)
(* Timed (untraced) mode                                                *)

let timed ~size ~seed ~seconds workload =
  let cells = cells_of ~size ~seed workload in
  let deadline = host_now () +. seconds in
  let first = List.map (run_cell size untraced ~seed) cells in
  List.iter print_cell first;
  (* Further passes while time remains; each repeat must reproduce the
     first pass's simulated results and allocation exactly. *)
  let samples = Array.of_list (List.map (fun o -> [ o ]) first) in
  let firsts = Array.of_list first in
  let errors = ref [] in
  let passes = ref 1 in
  (try
     while host_now () < deadline do
       Array.iteri
         (fun i cell ->
           if host_now () >= deadline then raise Exit;
           let o = run_cell size untraced ~seed cell in
           let f = firsts.(i) in
           if signature o <> signature f then
             errors := Printf.sprintf "%s: a repeat changed its simulated results" (label cell) :: !errors;
           if o.alloc_words <> f.alloc_words then
             errors :=
               Printf.sprintf "%s: a repeat allocated %.0f words, the first %.0f"
                 (label cell) o.alloc_words f.alloc_words
               :: !errors;
           samples.(i) <- o :: samples.(i))
         (Array.of_list cells);
       incr passes
     done
   with Exit -> ());
  (* The machine alternates between fast and slow phases lasting
     seconds, so one cell's repeats are often bimodal and their median
     flips between the modes from run to run.  The mean weighs every
     phase by its share of the run and was the steadier statistic over
     ten-run sets (README.md, Steadiness).  Set-up is short and
     outlier-prone, so it keeps the median. *)
  let per_cell stat f =
    Array.fold_left (fun acc os -> acc +. stat (List.map f os)) 0.0 samples
  in
  let setup_s = per_cell median (fun o -> o.setup_s) in
  let run_s = per_cell mean (fun o -> o.run_s) in
  Array.iter
    (fun os ->
      let os = List.rev os in
      Printf.printf "samples %-26s run_s=[%s]\n" (label (List.hd os).cell)
        (String.concat " " (List.map (fun o -> Printf.sprintf "%.4f" o.run_s) os)))
    samples;
  let reps = Array.fold_left (fun acc os -> acc + List.length os) 0 samples in
  Printf.printf "timed: %d cell runs over %d full pass(es)\n"
    reps !passes;
  print_exact workload first;
  let exact = exact_metrics workload first in
  let pick name = List.find (fun m -> m.name = name) exact in
  let metrics =
    [
      { name = "setup_s"; value = setup_s; unit_ = "s" };
      { name = "run_s"; value = run_s; unit_ = "s" };
      pick "alloc_mwords";
      { name = "peak_heap_mb"; value = peak_heap_mb (); unit_ = "MB" };
      pick "sim_ops_per_sim_s";
      pick "sim_p50_us";
      pick "sim_p99_us";
    ]
  in
  List.iter
    (fun m -> Printf.printf "metric %-20s %.6g %s\n" m.name m.value m.unit_)
    (metrics @ List.filter (fun m -> not (List.memq m metrics)) exact);
  let errors = List.concat_map (fun o -> o.errors) first @ List.rev !errors in
  (errors, first, metrics)

(* ------------------------------------------------------------------ *)
(* Traced mode                                                          *)

let gc_counts () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_collections, s.Gc.major_collections, s.Gc.promoted_words)

let zipf_create_s size =
  let n = match size with Full -> 4_000_000 | Tiny -> 100_000 in
  median
    (List.init 3 (fun _ ->
         Gc.full_major ();
         let t0 = host_now () in
         ignore (Sys.opaque_identity (Zipf.create ~n ~theta:0.99));
         host_now () -. t0))

let traced ~size ~seed workload =
  let cells = cells_of ~size ~seed workload in
  let mc0, mj0, pr0 = gc_counts () in
  let u = List.map (run_cell size untraced ~seed) cells in
  let mc1, mj1, pr1 = gc_counts () in
  List.iter print_cell u;
  print_exact workload u;
  let t = List.map (run_cell size { untraced with spans = true } ~seed) cells in
  let f = List.map (run_cell size { untraced with flight = false } ~seed) cells in
  let is_churn = workload = "churn" in
  let n =
    if is_churn then List.map (run_cell size { untraced with sanitize = false } ~seed) cells
    else []
  in
  let differs what passes =
    List.concat
      (List.map2
         (fun a b ->
           if signature a <> signature b then
             [ Printf.sprintf "%s: the %s pass changed its simulated results" (label a.cell) what ]
           else [])
         u passes)
  in
  let errors =
    List.concat_map (fun o -> o.errors) (u @ t @ f @ n)
    @ differs "traced" t @ differs "flight-off" f
    @ if is_churn then differs "unsanitized" n else []
  in
  let run_s os = sum (fun o -> o.run_s) os in
  let ops = float_of_int (isum (fun o -> o.ops) u) in
  let per_op x = if ops > 0.0 then x /. ops else 0.0 in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let total name = float_of_int (isum (fun o -> Metrics.total o.snapshot name) u) in
  let count name v = { name; value = v; unit_ = "count" } in
  let events = float_of_int (isum (fun o -> o.events) u) in
  let engine =
    [
      count "engine.events" events;
      count "engine.pushes" (float_of_int (isum (fun o -> o.pushes) u));
      { name = "engine.events_per_op"; value = per_op events; unit_ = "events/op" };
      { name = "engine.events_per_host_s"; value = ratio events (run_s u); unit_ = "1/s" };
    ]
  in
  let backends =
    List.concat_map
      (fun b ->
        let mine = List.filter (fun o -> backend_of o.cell = Some b) u in
        let bops = float_of_int (isum (fun o -> o.ops) mine) in
        [
          { name = Printf.sprintf "backend.%s.run_s" b; value = run_s mine; unit_ = "s" };
          {
            name = Printf.sprintf "backend.%s.alloc_words_per_op" b;
            value = ratio (sum (fun o -> o.alloc_words) mine) bops;
            unit_ = "words/op";
          };
        ])
      backend_names
  in
  let dsm =
    let ledgers = List.filter_map (fun o -> o.ledger) t in
    List.concat
      (List.mapi
         (fun i op ->
           let calls = isum (fun l -> l.calls.(i)) ledgers in
           let all = List.fold_left (fun acc l -> Stats.merge acc l.virt.(i)) (Stats.create ()) ledgers in
           let pct p = if Stats.count all > 0 then Stats.percentile all p *. 1e6 else 0.0 in
           [
             count (Printf.sprintf "dsm.%s.calls" op) (float_of_int calls);
             { name = Printf.sprintf "dsm.%s.virt_us_p50" op; value = pct 50.0; unit_ = "virt_us" };
             { name = Printf.sprintf "dsm.%s.virt_us_p99" op; value = pct 99.0; unit_ = "virt_us" };
           ])
         (Array.to_list dsm_ops))
  in
  let fabric =
    [
      { name = "fabric.remote_ops_per_op"; value = per_op (total "fabric.remote_ops"); unit_ = "ops/op" };
      { name = "fabric.bytes_per_op"; value = per_op (total "fabric.bytes_out"); unit_ = "B/op" };
    ]
    @ List.map
        (fun n -> count ("fabric." ^ n) (total ("fabric." ^ n)))
        [ "reads"; "writes"; "rpcs"; "atomics"; "retries"; "timeouts"; "drops"; "stale_epochs" ]
  in
  let hits = total "cache.hits" and misses = total "cache.misses" in
  let cache =
    [
      count "cache.hits" hits;
      count "cache.misses" misses;
      count "cache.evictions" (total "cache.evictions");
      { name = "cache.hit_ratio"; value = ratio hits (hits +. misses); unit_ = "ratio" };
    ]
  in
  let protocol =
    List.map
      (fun k ->
        count ("protocol.ops." ^ k) (float_of_int (isum (fun o -> op_count o.snapshot k) u)))
      Drust_core.Protocol.op_latency_kinds
    @ List.map
        (fun n -> count ("protocol." ^ n) (total ("protocol." ^ n)))
        [ "moves"; "color_bumps"; "fetches" ]
  in
  let churns = List.filter_map (fun o -> o.churn) u in
  let p99_ms pick =
    let s = Stats.create () in
    List.iter (fun r -> List.iter (fun (_, dt) -> Stats.add s dt) (pick r)) churns;
    if Stats.count s > 0 then Stats.percentile s 99.0 *. 1e3 else 0.0
  in
  let ch f = float_of_int (List.fold_left (fun acc r -> acc + f r) 0 churns) in
  let runtime =
    [
      count "membership.joins" (ch (fun r -> r.Scenario.joins));
      count "membership.leaves" (ch (fun r -> r.Scenario.leaves));
      count "membership.handoff_commits" (ch (fun r -> r.Scenario.handoff_commits));
      count "membership.handoff_aborts" (ch (fun r -> r.Scenario.handoff_aborts));
      { name = "controller.detection_p99_ms"; value = p99_ms (fun r -> r.Scenario.detection); unit_ = "virt_ms" };
      { name = "replication.recovery_p99_ms"; value = p99_ms (fun r -> r.Scenario.recovery); unit_ = "virt_ms" };
    ]
  in
  let cp = Array.make (List.length Cp.all_segments) 0.0 in
  List.iter (fun o -> Array.iteri (fun i v -> cp.(i) <- cp.(i) +. v) o.cp) t;
  let cp_total = Array.fold_left ( +. ) 0.0 cp in
  let obs =
    [
      count "dsan.violations" (float_of_int (isum (fun o -> o.violations) u));
      { name = "dsan.overhead"; value = (if is_churn then ratio (run_s u) (run_s n) else 0.0); unit_ = "ratio" };
      { name = "flight.overhead"; value = ratio (run_s u) (run_s f); unit_ = "ratio" };
      { name = "span.overhead"; value = ratio (run_s t) (run_s u); unit_ = "ratio" };
    ]
    @ List.mapi
        (fun i seg ->
          {
            name = Printf.sprintf "cp.%s_share" (Cp.segment_name seg);
            value = ratio cp.(i) cp_total;
            unit_ = "share";
          })
        Cp.all_segments
  in
  let gc =
    [
      count "gc.minor_collections" (float_of_int (mc1 - mc0));
      count "gc.major_collections" (float_of_int (mj1 - mj0));
      { name = "gc.promoted_mwords"; value = (pr1 -. pr0) /. 1e6; unit_ = "Mwords" };
    ]
  in
  let zipf = [ { name = "workloads.zipf_create_s"; value = zipf_create_s size; unit_ = "s" } ] in
  let metrics =
    engine @ backends @ dsm @ fabric @ cache @ protocol @ zipf @ gc @ runtime @ obs
  in
  List.iter (fun m -> Printf.printf "layer %-34s %.6g %s\n" m.name m.value m.unit_) metrics;
  (errors, u, metrics)

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)

let usage () =
  prerr_endline
    "usage: drust_bench --workload (fig5-8n|drust-read|drust-write|churn) \
     --seed N --seconds S --trace (0|1) [--size (full|tiny)]";
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None and size = ref Full in
  let int_arg v = match int_of_string_opt v with Some n -> n | None -> usage () in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest when List.mem v workloads -> workload := Some v; parse rest
    | "--seed" :: v :: rest -> seed := Some (int_arg v); parse rest
    | "--seconds" :: v :: rest -> seconds := Some (int_arg v); parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); parse rest
    | "--size" :: "full" :: rest -> size := Full; parse rest
    | "--size" :: "tiny" :: rest -> size := Tiny; parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some workload, Some seed, Some seconds, Some trace when seed >= 0 && seconds > 0 ->
      let size = !size in
      (* Failures are reported here; the recorder's automatic dumps
         would only litter the checkout. *)
      Flight.set_auto_dump false;
      Printf.printf "# drust_bench workload=%s seed=%d seconds=%d trace=%d size=%s\n%!"
        workload seed seconds (if trace then 1 else 0)
        (match size with Full -> "full" | Tiny -> "tiny");
      let errors, first, metrics =
        if trace then traced ~size ~seed workload
        else timed ~size ~seed ~seconds:(float_of_int seconds) workload
      in
      List.iter (fun e -> Printf.printf "check FAILED: %s\n" e) errors;
      if errors = [] then print_endline "check ok: op counts, churn audit, DSan, exact repeats";
      let attempted = isum (fun o -> o.attempted) first in
      let failed = isum (fun o -> o.failed) first in
      print_result ~correct:(errors = []) ~attempted:(max 1 attempted) ~failed metrics;
      exit (if errors = [] then 0 else 1)
  | _ -> usage ()
