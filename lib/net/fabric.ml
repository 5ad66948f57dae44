module Engine = Drust_sim.Engine
module Fault = Drust_sim.Fault
module Metrics = Drust_obs.Metrics
module Span = Drust_obs.Span
module Flight = Drust_obs.Flight

type node_id = int

(* A verb targeting (or issued from) a crashed node: the transport's
   retry period expires and the work request completes in error. *)
exception Node_down of int

(* A wrapped operation that did not complete within its simulated-time
   budget (e.g. the message or its reply was dropped or blackholed). *)
exception Rpc_timeout of { from : int; target : int; timeout : float }

(* A verb carried a membership-view epoch older than the one current at
   serve time: the target refuses to act on routing state that a
   committed handoff has invalidated.  Retryable — the caller re-reads
   its view (updated by the controller's announcement) and reissues. *)
exception Stale_epoch of { from : int; target : int; seen : int; current : int }

let () =
  Printexc.register_printer (function
    | Node_down n -> Some (Printf.sprintf "Fabric.Node_down(node %d)" n)
    | Rpc_timeout { from; target; timeout } ->
        Some
          (Printf.sprintf "Fabric.Rpc_timeout(%d->%d after %gus)" from target
             (timeout *. 1e6))
    | Stale_epoch { from; target; seen; current } ->
        Some
          (Printf.sprintf "Fabric.Stale_epoch(%d->%d carried e%d, current e%d)"
             from target seen current)
    | _ -> None)

type counters = {
  reads : int;
  writes : int;
  atomics : int;
  rpcs : int;
  bytes_out : int;
  remote_ops : int;
  timeouts : int; (* wrapped ops that expired their budget *)
  retries : int; (* backoff re-attempts issued from this node *)
  drops : int; (* messages lost to partitions or lossy links *)
  stale_epochs : int; (* verbs rejected for carrying an old view epoch *)
}

(* Per-node registry handles; the public [counters] record is a snapshot
   of these. *)
type verbs = {
  c_reads : Metrics.counter;
  c_writes : Metrics.counter;
  c_atomics : Metrics.counter;
  c_rpcs : Metrics.counter;
  c_bytes_out : Metrics.counter;
  c_remote_ops : Metrics.counter;
  c_timeouts : Metrics.counter;
  c_retries : Metrics.counter;
  c_drops : Metrics.counter;
  c_stale_epochs : Metrics.counter;
}

(* One batch of coalesced async deliveries on a directed edge: callbacks
   landing at the exact same instant with no other event pushed since the
   batch's own queue entry.  Running them back-to-back inside that one
   entry is indistinguishable from dispatching them individually — they
   would have occupied adjacent (time, seq) slots anyway.  [bt_mark] is
   the engine's push count right after the batch event was pushed; any
   later push invalidates the batch for further appends.  [bt_done]
   marks a fired batch whose record may be recycled for the next batch
   on the edge, and [bt_run], the batch's queue callback, is built with
   the record, so steady-state batching allocates no records and no
   closures.  The batch's landing time lives in the fabric's [batch_at],
   unboxed. *)
type batch = {
  mutable bt_mark : int;
  mutable bt_fns : (unit -> unit) array;
  mutable bt_len : int;
  mutable bt_done : bool;
  bt_run : unit -> unit;
}

type t = {
  engine : Engine.t;
  rng : Drust_util.Rng.t;
  model : Model.t;
  (* [model.jitter], boxed once here: [Model.t] stores its floats
     unboxed, so passing the field itself to [Rng.gaussian] would box it
     on every verb. *)
  jitter : float;
  nodes : int;
  metrics : Metrics.t;
  counters : verbs array;
  (* Most recent batch per directed edge, indexed from * nodes + target.
     [batching] gates coalescing; turning it off never loses pending
     batches (their scheduled events own their records). *)
  mutable batching : bool;
  batch_slots : batch option array;
  batch_at : float array; (* landing time of each edge's latest batch *)
  (* Egress line-rate serialization: the NIC that sources a payload can
     push one stream at line rate; concurrent bulk transfers from the
     same node queue behind each other.  Small control messages are
     exempt (they ride the latency, not the bandwidth). *)
  nics : Drust_sim.Resource.t array;
  mutable spans : Span.t option;
  mutable fault : Fault.t option;
  (* Current membership-view epoch, installed by the membership layer.
     Verbs carrying an [?epoch] are validated against it at serve time;
     absent (the default) every carried epoch passes. *)
  mutable epoch_of : (unit -> int) option;
  (* The cluster's observation point: every verb issue, timeout, retry,
     drop, and stale-epoch NAK is reported there on the issuing node. *)
  flight : Flight.t option;
}

(* Transfers below this size do not contend for the DMA engine. *)
let bulk_threshold = 4096

let register_verbs metrics node =
  let labels = [ ("node", string_of_int node) ] in
  let c ?(unit_ = "ops") name = Metrics.counter metrics ~labels ~unit_ name in
  {
    c_reads = c "fabric.reads";
    c_writes = c "fabric.writes";
    c_atomics = c "fabric.atomics";
    c_rpcs = c "fabric.rpcs";
    c_bytes_out = c ~unit_:"bytes" "fabric.bytes_out";
    c_remote_ops = c "fabric.remote_ops";
    c_timeouts = c "fabric.timeouts";
    c_retries = c "fabric.retries";
    c_drops = c "fabric.drops";
    c_stale_epochs = c "fabric.stale_epochs";
  }

let create ?metrics ?spans ?flight ~engine ~rng ~model ~nodes () =
  if nodes <= 0 then invalid_arg "Fabric.create: need at least one node";
  let metrics =
    match metrics with Some m -> m | None -> Metrics.create ()
  in
  {
    engine;
    rng;
    model;
    jitter = model.Model.jitter;
    nodes;
    metrics;
    counters = Array.init nodes (register_verbs metrics);
    batching = true;
    batch_slots = Array.make (nodes * nodes) None;
    batch_at = Array.make (nodes * nodes) 0.0;
    nics =
      Array.init nodes (fun _ -> Drust_sim.Resource.create engine ~capacity:1);
    spans;
    fault = None;
    epoch_of = None;
    flight;
  }

(* Report one fabric event on the issuing node (see Flight.record). *)
let[@inline] fr t ~from ~kind ~a ~b ~c =
  match t.flight with
  | None -> ()
  | Some fl ->
      Flight.record fl ~node:from ~time:(Engine.now t.engine) ~thread:(-1)
        ~kind ~a ~b ~c ~d:0

let ep = function Some e -> e | None -> -1

let set_spans t spans = t.spans <- spans
let set_delivery_batching t on = t.batching <- on
let set_epoch_source t f = t.epoch_of <- f
let metrics t = t.metrics
let set_fault_plan t plan = t.fault <- Some plan
let fault_plan t = t.fault

(* Instant mark on the issuing node's timeline (drops, timeouts, async
   sends); argument lists are only built when tracing is live. *)
let mark ?parent t verb ~from ~target ~bytes =
  match t.spans with
  | Some sp when Span.is_enabled sp ->
      Span.instant sp ~track:from ?parent ~category:"fabric"
        ~args:
          [ ("target", string_of_int target); ("bytes", string_of_int bytes) ]
        verb
  | _ -> ()

(* Live tracing context threaded through one blocking verb: the tracer,
   the verb's open span, and the flow-edge id minted for cross-node
   verbs (0 when from = target). *)
type verb_trace = { vt_sp : Span.t; vt_span : Span.span; vt_flow : int }

(* Target-side consumption mark: closes the flow arrow on the serving
   node's timeline (the RECV of an RPC, the NIC serving a READ). *)
let serve_mark vt ~target name =
  match vt with
  | None -> ()
  | Some { vt_sp; vt_span; vt_flow } ->
      let flow_in = if vt_flow = 0 then [] else [ vt_flow ] in
      Span.instant vt_sp ~track:target ~parent:vt_span ~flow_in
        ~category:"fabric" name

(* The span tracer when tracing is on.  Untraced verbs call their body
   directly with [vt = None], so they build no closure for it. *)
let tracer t =
  match t.spans with Some sp when Span.is_enabled sp -> t.spans | _ -> None

(* Complete span covering a blocking verb's latency.  [f] receives the
   live trace context so it can hang wire/queue sub-spans and
   target-side marks off the verb span. *)
let with_verb_span sp verb ~from ~target ~bytes ?parent f =
  let vs =
    Span.start sp ~track:from ~category:"fabric" ?parent
      ~args:
        [ ("target", string_of_int target); ("bytes", string_of_int bytes) ]
      verb
  in
  let fid =
    if from = target then 0
    else begin
      let fid = Span.fresh_flow_id sp in
      Span.add_flow_out vs fid;
      fid
    end
  in
  let vt = Some { vt_sp = sp; vt_span = vs; vt_flow = fid } in
  match f vt with
  | v ->
      Span.finish sp vs;
      v
  | exception e ->
      Span.finish sp vs;
      raise e

let engine t = t.engine
let node_count t = t.nodes
let model t = t.model

let check_node t n label =
  if n < 0 || n >= t.nodes then
    invalid_arg (Printf.sprintf "Fabric.%s: node %d out of range" label n)

(* ------------------------------------------------------------------ *)
(* Fault-plan consultation.  With no plan installed every check is a
   no-op, so fault-free runs keep their exact event and RNG sequences. *)

(* Park the calling process forever: the registration function discards
   the resumer, so the continuation is never scheduled. *)
let blackhole t : unit = Engine.suspend t.engine (fun _resume -> ())

(* Synchronous verbs: a dead source kills the issuing thread's op
   outright; a dead target costs the transport's retry period and then
   completes in error; a severed or lossy link swallows the message, so
   the op never completes (callers bound this with [rpc_with_timeout]). *)
let sync_guard t ~from ~target =
  match t.fault with
  | None -> ()
  | Some p ->
      if Fault.is_down p from then raise (Node_down from);
      if from <> target then begin
        if Fault.is_down p target then begin
          Engine.delay t.engine (Fault.nak_delay p);
          raise (Node_down target)
        end;
        if Fault.severed p ~from ~target || Fault.drops p ~from ~target then begin
          Metrics.incr t.counters.(from).c_drops;
          mark t "DROP" ~from ~target ~bytes:0;
          fr t ~from ~kind:Flight.k_fab_drop ~a:target ~b:0 ~c:0;
          blackhole t
        end
      end

(* Fire-and-forget verbs never raise: a message to a dead or unreachable
   node is silently lost, exactly like a one-sided WRITE whose completion
   nobody polls. *)
let async_delivers t ~from ~target =
  match t.fault with
  | None -> true
  | Some p ->
      if
        Fault.is_down p from || Fault.is_down p target
        || (from <> target
           && (Fault.severed p ~from ~target || Fault.drops p ~from ~target))
      then begin
        Metrics.incr t.counters.(from).c_drops;
        mark t "DROP(async)" ~from ~target ~bytes:0;
        fr t ~from ~kind:Flight.k_fab_drop ~a:target ~b:0 ~c:0;
        false
      end
      else true

(* Serve-time view validation: a verb that carried an epoch is rejected
   if the membership view advanced while it was in flight (or the issuer
   was already behind when it posted).  Runs after the request leg's
   latency — the request reached the target and completed in error, like
   a work request NAKed by a server that re-checked its delegation map. *)
let check_epoch t ~from ~target epoch =
  match (epoch, t.epoch_of) with
  | Some seen, Some current_of ->
      let current = current_of () in
      if seen < current then begin
        Metrics.incr t.counters.(from).c_stale_epochs;
        mark t "STALE_EPOCH" ~from ~target ~bytes:0;
        fr t ~from ~kind:Flight.k_fab_stale_epoch ~a:target ~b:seen ~c:current;
        raise (Stale_epoch { from; target; seen; current })
      end
  | _ -> ()

(* The latency arithmetic stays inside this module, in inlined helpers:
   a float passed to or returned from a function that is not inlined is
   boxed, so each delay boxes only the one value it hands to
   [Engine.delay].  A verb names its base latency by class, and the
   model field is read where the sum is formed. *)
type verb_class = Oneside | Twoside | Atomic

(* [Model.transfer_time], computed here. *)
let[@inline] transfer t ~bytes = Float.of_int bytes /. t.model.Model.bandwidth

(* Apply multiplicative gaussian jitter to a base latency, clamped so that
   a pathological sample can never be negative or more than double. *)
let[@inline] jittered t base =
  if t.jitter <= 0.0 then base
  else
    let factor = Drust_util.Rng.gaussian t.rng ~mu:1.0 ~sigma:t.jitter in
    base *. Float.max 0.5 (Float.min 2.0 factor)

let[@inline] fault_extra_latency t ~from ~target =
  match t.fault with
  | Some p when from <> target -> Fault.extra_latency p ~from ~target
  | Some _ | None -> 0.0

let[@inline] latency t ~from ~target ~cls ~bytes =
  let m = t.model in
  let raw =
    if from = target then m.Model.local_base +. transfer t ~bytes
    else
      (match cls with
      | Oneside -> m.Model.oneside_base
      | Twoside -> m.Model.twoside_base
      | Atomic -> m.Model.atomic_base)
      +. transfer t ~bytes
  in
  jittered t raw +. fault_extra_latency t ~from ~target

(* Block for the verb's latency; a bulk payload additionally holds the
   data source's NIC for its wire time, so concurrent bulk egress from
   one node serializes at line rate.  With a live [vt], each phase lands
   as a sub-span of the verb (propagation/wire -> [net.wire], waiting
   for the NIC -> [net.queue], holding it -> [net.serialize]) — the
   exact same delays and resource acquisitions happen either way. *)
let delay_with_nic ~vt t ~data_source ~from ~target ~cls ~bytes =
  if bytes >= bulk_threshold && from <> target then begin
    match vt with
    | Some { vt_sp = sp; vt_span = parent; _ } ->
        Span.with_span sp ~track:from ~parent ~category:"net.wire" "propagate"
          (fun () ->
            Engine.delay t.engine (latency t ~from ~target ~cls ~bytes:0));
        let wait =
          Span.start sp ~track:from ~parent ~category:"net.queue" "nic_wait"
        in
        Drust_sim.Resource.use t.nics.(data_source) (fun () ->
            Span.finish sp wait;
            Span.with_span sp ~track:from ~parent ~category:"net.serialize"
              "serialize" (fun () ->
                Engine.delay t.engine (jittered t (transfer t ~bytes))))
    | None ->
        Engine.delay t.engine (latency t ~from ~target ~cls ~bytes:0);
        (* [Resource.use] without its closure: the delay cannot raise.
           The jitter is drawn after the NIC is granted, as traced. *)
        let nic = t.nics.(data_source) in
        Drust_sim.Resource.acquire nic;
        Engine.delay t.engine (jittered t (transfer t ~bytes));
        Drust_sim.Resource.release nic
  end
  else
    match vt with
    | Some { vt_sp = sp; vt_span = parent; _ } ->
        Span.with_span sp ~track:from ~parent ~category:"net.wire" "wire"
          (fun () ->
            Engine.delay t.engine (latency t ~from ~target ~cls ~bytes))
    | None -> Engine.delay t.engine (latency t ~from ~target ~cls ~bytes)

let note t ~from ~target ~bytes =
  let c = t.counters.(from) in
  Metrics.add c.c_bytes_out bytes;
  if from <> target then Metrics.incr c.c_remote_ops

(* The body of each blocking verb, traced or not.  READ pulls data out of
   the target (the target's NIC is the egress); WRITE and an RPC's
   request push it from the sender. *)
let oneside_body t ~data_source ~served ~from ~target ~bytes epoch vt =
  delay_with_nic ~vt t ~data_source ~from ~target ~cls:Oneside ~bytes;
  check_epoch t ~from ~target epoch;
  if from <> target then serve_mark vt ~target served

let atomic_body t ~from ~target f vt =
  (match vt with
  | Some { vt_sp = sp; vt_span = parent; _ } ->
      Span.with_span sp ~track:from ~parent ~category:"net.wire" "wire"
        (fun () ->
          Engine.delay t.engine (latency t ~from ~target ~cls:Atomic ~bytes:0))
  | None ->
      Engine.delay t.engine (latency t ~from ~target ~cls:Atomic ~bytes:0));
  if from <> target then serve_mark vt ~target "SERVE(ATOMIC)";
  f ()

let rpc_body t ~from ~target ~req_bytes ~resp_bytes epoch handler vt =
  delay_with_nic ~vt t ~data_source:from ~from ~target ~cls:Twoside
    ~bytes:req_bytes;
  check_epoch t ~from ~target epoch;
  if from <> target then serve_mark vt ~target "RECV(RPC)";
  let result = handler () in
  delay_with_nic ~vt t ~data_source:target ~from ~target ~cls:Twoside
    ~bytes:resp_bytes;
  result

let rdma_read ?parent ?epoch t ~from ~target ~bytes =
  check_node t from "rdma_read";
  check_node t target "rdma_read";
  Metrics.incr t.counters.(from).c_reads;
  note t ~from ~target ~bytes;
  fr t ~from ~kind:Flight.k_fab_read ~a:target ~b:bytes ~c:(ep epoch);
  sync_guard t ~from ~target;
  match tracer t with
  | None ->
      oneside_body t ~data_source:target ~served:"SERVE(READ)" ~from ~target
        ~bytes epoch None
  | Some sp ->
      with_verb_span sp "READ" ~from ~target ~bytes ?parent
        (oneside_body t ~data_source:target ~served:"SERVE(READ)" ~from
           ~target ~bytes epoch)

let rdma_write ?parent ?epoch t ~from ~target ~bytes =
  check_node t from "rdma_write";
  check_node t target "rdma_write";
  Metrics.incr t.counters.(from).c_writes;
  note t ~from ~target ~bytes;
  fr t ~from ~kind:Flight.k_fab_write ~a:target ~b:bytes ~c:(ep epoch);
  sync_guard t ~from ~target;
  match tracer t with
  | None ->
      oneside_body t ~data_source:from ~served:"SERVE(WRITE)" ~from ~target
        ~bytes epoch None
  | Some sp ->
      with_verb_span sp "WRITE" ~from ~target ~bytes ?parent
        (oneside_body t ~data_source:from ~served:"SERVE(WRITE)" ~from
           ~target ~bytes epoch)

(* ------------------------------------------------------------------ *)
(* Async delivery batching.                                            *)

let nop () = ()

(* Run every callback of a fired batch inside the one queue entry.  The
   loop re-reads [bt_len] live: a callback that issues a same-edge
   delivery landing at this very instant (before any other push) appends
   to this batch, and running it at the tail is exactly the slot it
   would have dispatched in unbatched.  The piggybacked callbacks are
   accounted as logical events so events/sec stays comparable. *)
let run_batch engine b =
  if b.bt_len > 1 then Engine.count_extra_events engine (b.bt_len - 1);
  let i = ref 0 in
  while !i < b.bt_len do
    let fn = b.bt_fns.(!i) in
    b.bt_fns.(!i) <- nop;
    incr i;
    fn ()
  done;
  b.bt_done <- true

(* Queue [b]'s run at [at] as the latest batch of edge [slot]. *)
let schedule_batch t slot b at =
  Engine.schedule t.engine ~at b.bt_run;
  b.bt_mark <- Engine.pushes t.engine;
  t.batch_at.(slot) <- at

(* Schedule async delivery callback [fn] to run [dt] from now on edge
   [from -> target].  When the edge's pending batch lands at the exact
   same instant and nothing has been pushed since it was created, [fn]
   piggybacks on that batch's queue entry instead of getting its own.
   Order is provably unchanged: the no-pushes-since-the-batch check
   means [fn]'s own event would have taken the very next sequence slot
   after the batch's members, i.e. it dispatches immediately after them
   either way.  See docs/PERFORMANCE.md. *)
let deliver t ~from ~target dt fn =
  if not t.batching then Engine.schedule_after t.engine dt fn
  else begin
    let at = Engine.now t.engine +. dt in
    let slot = (from * t.nodes) + target in
    match t.batch_slots.(slot) with
    | Some b when t.batch_at.(slot) = at && Engine.pushes t.engine = b.bt_mark
      ->
        let cap = Array.length b.bt_fns in
        if b.bt_len = cap then begin
          let fns = Array.make (2 * cap) nop in
          Array.blit b.bt_fns 0 fns 0 cap;
          b.bt_fns <- fns
        end;
        b.bt_fns.(b.bt_len) <- fn;
        b.bt_len <- b.bt_len + 1
    | Some b when b.bt_done ->
        (* Recycle the fired record: its event has run, nothing else can
           reference it. *)
        b.bt_fns.(0) <- fn;
        b.bt_len <- 1;
        b.bt_done <- false;
        schedule_batch t slot b at
    | Some _ | None ->
        let engine = t.engine in
        let rec b =
          { bt_mark = 0; bt_fns = [| fn; nop |]; bt_len = 1; bt_done = false;
            bt_run = (fun () -> run_batch engine b) }
        in
        schedule_batch t slot b at;
        t.batch_slots.(slot) <- Some b
  end

let rdma_write_async ?parent t ~from ~target ~bytes k =
  check_node t from "rdma_write_async";
  check_node t target "rdma_write_async";
  Metrics.incr t.counters.(from).c_writes;
  note t ~from ~target ~bytes;
  fr t ~from ~kind:Flight.k_fab_write ~a:target ~b:bytes ~c:(-1);
  if async_delivers t ~from ~target then begin
    let dt = latency t ~from ~target ~cls:Oneside ~bytes in
    match t.spans with
    | Some sp when Span.is_enabled sp ->
        (* Flow edge from the posting instant to a RECV instant emitted
           by a wrapped callback at delivery time — same schedule_after,
           so the event order is unchanged. *)
        let fid = if from = target then 0 else Span.fresh_flow_id sp in
        let flow_out = if fid = 0 then [] else [ fid ] in
        Span.instant sp ~track:from ?parent ~flow_out ~category:"fabric"
          ~args:
            [ ("target", string_of_int target); ("bytes", string_of_int bytes) ]
          "WRITE(async)";
        deliver t ~from ~target dt (fun () ->
            Span.instant sp ~track:target
              ~flow_in:(if fid = 0 then [] else [ fid ])
              ~category:"fabric" "RECV(WRITE)";
            k ())
    | _ -> deliver t ~from ~target dt k
  end

let rdma_atomic ?parent t ~from ~target f =
  check_node t from "rdma_atomic";
  check_node t target "rdma_atomic";
  Metrics.incr t.counters.(from).c_atomics;
  note t ~from ~target ~bytes:8;
  fr t ~from ~kind:Flight.k_fab_atomic ~a:target ~b:8 ~c:(-1);
  sync_guard t ~from ~target;
  match tracer t with
  | None -> atomic_body t ~from ~target f None
  | Some sp ->
      with_verb_span sp "ATOMIC" ~from ~target ~bytes:8 ?parent
        (atomic_body t ~from ~target f)

let rpc ?parent ?epoch t ~from ~target ~req_bytes ~resp_bytes handler =
  check_node t from "rpc";
  check_node t target "rpc";
  Metrics.incr t.counters.(from).c_rpcs;
  note t ~from ~target ~bytes:(req_bytes + resp_bytes);
  fr t ~from ~kind:Flight.k_fab_rpc ~a:target ~b:(req_bytes + resp_bytes)
    ~c:(ep epoch);
  sync_guard t ~from ~target;
  match tracer t with
  | None -> rpc_body t ~from ~target ~req_bytes ~resp_bytes epoch handler None
  | Some sp ->
      with_verb_span sp "RPC" ~from ~target ~bytes:(req_bytes + resp_bytes)
        ?parent
        (rpc_body t ~from ~target ~req_bytes ~resp_bytes epoch handler)

(* ------------------------------------------------------------------ *)
(* Bounded failure semantics: race an operation against a virtual-time
   timer, and retry with exponential backoff.  Without these, a dropped
   or blackholed message parks its caller forever.                     *)

type 'a raced = Settled of 'a | Crashed of exn | Expired

(* Run [f] in a helper process and suspend the caller until the first of
   {f completes, f raises, the timer fires} — later outcomes are
   discarded.  An abandoned [f] keeps running in virtual time (its heap
   side effects still land, like a request the server processed after
   the client gave up), or parks forever if its message was dropped. *)
let race_against_timer t ~timeout f =
  Engine.suspend t.engine (fun resume ->
      let settled = ref false in
      let settle outcome =
        if not !settled then begin
          settled := true;
          resume outcome
        end
      in
      ignore
        (Engine.spawn t.engine (fun () ->
             match f () with
             | v -> settle (Settled v)
             | exception e -> settle (Crashed e)));
      Engine.schedule_after t.engine timeout (fun () -> settle Expired))

let rpc_with_timeout ?parent ?epoch t ~from ~target ~req_bytes ~resp_bytes
    ~timeout handler =
  check_node t from "rpc_with_timeout";
  check_node t target "rpc_with_timeout";
  if timeout <= 0.0 then invalid_arg "Fabric.rpc_with_timeout: timeout <= 0";
  match
    race_against_timer t ~timeout (fun () ->
        rpc ?parent ?epoch t ~from ~target ~req_bytes ~resp_bytes handler)
  with
  | Settled v -> v
  | Crashed e -> raise e
  | Expired ->
      Metrics.incr t.counters.(from).c_timeouts;
      mark ?parent t "TIMEOUT" ~from ~target ~bytes:0;
      fr t ~from ~kind:Flight.k_fab_timeout ~a:target ~b:0 ~c:0;
      raise (Rpc_timeout { from; target; timeout })

(* Retry [op] on Node_down / Rpc_timeout / Stale_epoch with exponential
   backoff, giving up (re-raising the last error) when the attempt count
   or the simulated-time budget runs out.  [op] re-resolves its own
   target (and re-reads its membership view) each attempt, which is what
   lets a retry land on a freshly promoted backup or carry the epoch a
   handoff announcement just installed. *)
let retry_with_backoff ?parent t ~from ?(attempts = 8) ?(base_delay = 50e-6)
    ?(max_delay = 5e-3) ?(budget = Float.infinity) ?(jitter = 0.25) op =
  check_node t from "retry_with_backoff";
  if attempts < 1 then invalid_arg "Fabric.retry_with_backoff: attempts < 1";
  if jitter < 0.0 || jitter > 1.0 then
    invalid_arg "Fabric.retry_with_backoff: jitter outside [0, 1]";
  let deadline = Engine.now t.engine +. budget in
  let rec go n delay =
    match op () with
    | v -> v
    | exception ((Node_down _ | Rpc_timeout _ | Stale_epoch _) as e) ->
        if n + 1 >= attempts || Engine.now t.engine +. delay > deadline then
          raise e
        else begin
          Metrics.incr t.counters.(from).c_retries;
          mark ?parent t "RETRY" ~from ~target:from ~bytes:0;
          fr t ~from ~kind:Flight.k_fab_retry ~a:(n + 1) ~b:0 ~c:0;
          (* +-jitter seeded multiplicative noise decorrelates retry
             storms; the draw happens even at jitter = 0 so turning
             jitter off does not shift the RNG stream. *)
          let d =
            delay *. (1.0 -. jitter +. Drust_util.Rng.float t.rng (2.0 *. jitter))
          in
          Engine.delay t.engine d;
          go (n + 1) (Float.min max_delay (delay *. 2.0))
        end
  in
  go 0 base_delay

let send_async ?parent t ~from ~target ~bytes handler =
  check_node t from "send_async";
  check_node t target "send_async";
  Metrics.incr t.counters.(from).c_rpcs;
  note t ~from ~target ~bytes;
  fr t ~from ~kind:Flight.k_fab_send ~a:target ~b:bytes ~c:(-1);
  if async_delivers t ~from ~target then begin
    let dt = latency t ~from ~target ~cls:Twoside ~bytes in
    let handler =
      match t.spans with
      | Some sp when Span.is_enabled sp ->
          let fid = if from = target then 0 else Span.fresh_flow_id sp in
          let flow_out = if fid = 0 then [] else [ fid ] in
          Span.instant sp ~track:from ?parent ~flow_out ~category:"fabric"
            ~args:
              [ ("target", string_of_int target);
                ("bytes", string_of_int bytes) ]
            "SEND(async)";
          fun () ->
            Span.instant sp ~track:target
              ~flow_in:(if fid = 0 then [] else [ fid ])
              ~category:"fabric" "RECV(SEND)";
            handler ()
      | _ -> handler
    in
    deliver t ~from ~target dt (fun () ->
        Engine.start_process t.engine handler)
  end

let counters_of t node =
  check_node t node "counters_of";
  let c = t.counters.(node) in
  {
    reads = Metrics.value c.c_reads;
    writes = Metrics.value c.c_writes;
    atomics = Metrics.value c.c_atomics;
    rpcs = Metrics.value c.c_rpcs;
    bytes_out = Metrics.value c.c_bytes_out;
    remote_ops = Metrics.value c.c_remote_ops;
    timeouts = Metrics.value c.c_timeouts;
    retries = Metrics.value c.c_retries;
    drops = Metrics.value c.c_drops;
    stale_epochs = Metrics.value c.c_stale_epochs;
  }

let total_remote_ops t =
  Array.fold_left (fun acc c -> acc + Metrics.value c.c_remote_ops) 0 t.counters

let total_bytes t =
  Array.fold_left (fun acc c -> acc + Metrics.value c.c_bytes_out) 0 t.counters

let reset_counters t =
  Array.iter
    (fun c ->
      Metrics.reset_counter c.c_reads;
      Metrics.reset_counter c.c_writes;
      Metrics.reset_counter c.c_atomics;
      Metrics.reset_counter c.c_rpcs;
      Metrics.reset_counter c.c_bytes_out;
      Metrics.reset_counter c.c_remote_ops;
      Metrics.reset_counter c.c_timeouts;
      Metrics.reset_counter c.c_retries;
      Metrics.reset_counter c.c_drops;
      Metrics.reset_counter c.c_stale_epochs)
    t.counters
