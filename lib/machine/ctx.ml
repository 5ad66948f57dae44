module Engine = Drust_sim.Engine
module Resource = Drust_sim.Resource

type pending = { mutable cycles : float }

type t = {
  cluster : Cluster.t;
  thread_id : int;
  mutable node : int;
  rng : Drust_util.Rng.t;
  pending : pending;
  mutable local_alloc_bytes : int;
  remote_accesses : int array;
  mutable safe_point_hook : (t -> unit) option;
  mutable current_span : Drust_obs.Span.span option;
  mutable op_kind : int;
  mutable layer_cache : exn;
}

let make cluster ~node =
  if node < 0 || node >= Cluster.node_count cluster then
    invalid_arg "Ctx.make: node out of range";
  let id = Cluster.fresh_thread_id cluster in
  {
    cluster;
    thread_id = id;
    node;
    rng = Drust_util.Rng.split (Cluster.rng cluster);
    pending = { cycles = 0.0 };
    local_alloc_bytes = 0;
    remote_accesses = Array.make (Cluster.node_count cluster) 0;
    safe_point_hook = None;
    current_span = None;
    op_kind = -1;
    layer_cache = Not_found;
  }

let cluster t = t.cluster
let current_node t = Cluster.node t.cluster t.node
let engine t = Cluster.engine t.cluster
let fabric t = Cluster.fabric t.cluster
let params t = Cluster.params t.cluster

(* Report one event through the cluster's observation point, stamped
   with this context's node and thread at the current virtual time. *)
let[@inline] record t ~kind ~a ~b ~c ~d =
  Drust_obs.Flight.record (Cluster.flight t.cluster) ~node:t.node
    ~time:(Engine.now (engine t)) ~thread:t.thread_id ~kind ~a ~b ~c ~d

let safe_point t =
  match t.safe_point_hook with None -> () | Some hook -> hook t

(* [Params.cycles_to_seconds], computed here: a float returned from
   another module comes back boxed. *)
let[@inline] seconds_of t cycles = cycles /. ((params t).Params.ghz *. 1e9)

let flush t =
  safe_point t;
  let cycles = t.pending.cycles in
  if cycles > 0.0 then begin
    t.pending.cycles <- 0.0;
    let seconds = seconds_of t cycles in
    let cores = (current_node t).Cluster.cores in
    let spans = Cluster.spans t.cluster in
    if Drust_obs.Span.is_enabled spans then begin
      (* Observational only: the same Resource.use / Engine.delay calls
         happen in the same order, so traced runs stay bit-identical. *)
      let module Span = Drust_obs.Span in
      let wait =
        Span.start spans ~track:t.node ?parent:t.current_span
          ~category:"cpu.queue" "core_wait"
      in
      Resource.use cores (fun () ->
          Span.finish spans wait;
          Span.with_span spans ~track:t.node ?parent:t.current_span
            ~category:"cpu.compute" "compute" (fun () ->
              Engine.delay (engine t) seconds))
    end
    else begin
      (* [Resource.use] without its closure: a positive delay cannot
         raise, so there is no release-on-exception path to keep. *)
      Resource.acquire cores;
      Engine.delay (engine t) seconds;
      Resource.release cores
    end
  end

let charge_cycles t cycles =
  if cycles < 0.0 then invalid_arg "Ctx.charge_cycles: negative";
  let pending = t.pending.cycles +. cycles in
  t.pending.cycles <- pending;
  if seconds_of t pending >= (params t).Params.flush_grain then flush t

let compute t ~cycles =
  t.pending.cycles <- t.pending.cycles +. cycles;
  flush t

let note_remote_access t ~target =
  if target <> t.node then
    t.remote_accesses.(target) <- t.remote_accesses.(target) + 1

let note_local_alloc t ~bytes = t.local_alloc_bytes <- t.local_alloc_bytes + bytes

let remote_access_total t = Array.fold_left ( + ) 0 t.remote_accesses

let hottest_remote_node t =
  let best = ref (-1) and best_count = ref 0 in
  Array.iteri
    (fun i c ->
      if i <> t.node && c > !best_count then begin
        best := i;
        best_count := c
      end)
    t.remote_accesses;
  if !best < 0 then None else Some !best

let reset_counters t =
  t.local_alloc_bytes <- 0;
  Array.fill t.remote_accesses 0 (Array.length t.remote_accesses) 0
