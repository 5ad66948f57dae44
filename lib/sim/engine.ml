open Effect.Deep

(* What a parking process asks its handler to do with its waker. *)
type park_request =
  | At_time  (* push it as an event at [park_time] *)
  | Into_queue  (* append it to [park_queue] *)
  | Register  (* pass the process to [park_register] *)

type t = {
  events : (unit -> unit) Drust_util.Pqueue.t;
  mutable clock : float;
      [@dlint.allow
        "boxed-float: holds the box Pqueue.last_time returns, so \
         advancing the clock and Engine.now allocate nothing"]
  mutable live : int;
  mutable failures : exn list;
  mutable dispatched : int;
      (* logical events run: one per queue pop, plus every callback a
         batched delivery ran without its own queue entry *)
  (* The request of the park being performed, set just before [Park]. *)
  mutable park_request : park_request;
  mutable park_time : float;
      [@dlint.allow
        "boxed-float: the one box a timed park hands to Pqueue.push, \
         which takes its time boxed"]
  mutable park_queue : (unit -> unit) Queue.t;
  mutable park_register : proc -> unit;
}

(* A process's park record, allocated once in [run_fiber].  Every block
   parks the process's continuation in [k]; [wake] and [cont] are the
   preallocated event callbacks that bring it back, so blocking and
   waking allocate no closures.  [waiting] is the number of the park
   that is owed a wake (0 when none): it makes every wake one-shot. *)
and proc = {
  mutable k : (unit, unit) continuation option;
  mutable parks : int;
  mutable waiting : int;
  wake : unit -> unit;
  cont : unit -> unit;
}

type process_state = Running | Finished | Failed of exn

type process_handle = {
  mutable state : process_state;
  mutable join_waiters : (unit -> unit) list;
}

(* The one effect a blocking process performs.  It is constant, so
   performing it allocates nothing but the continuation. *)
type _ Effect.t += Park : unit Effect.t

exception Process_failure of exn

let () =
  Printexc.register_printer (function
    | Process_failure inner ->
        Some ("Engine.Process_failure(" ^ Printexc.to_string inner ^ ")")
    | _ -> None)

let create () =
  {
    events = Drust_util.Pqueue.create ();
    clock = 0.0;
    live = 0;
    failures = [];
    dispatched = 0;
    park_request = At_time;
    park_time = 0.0;
    park_queue = Queue.create ();
    park_register = ignore;
  }

let now t = t.clock
let dispatched t = t.dispatched

(* Total pushes ever made to the event queue.  Two pushes with no other
   push in between are adjacent in the dispatch order at their
   timestamp; the fabric's delivery batching relies on this mark. *)
let pushes t = Drust_util.Pqueue.pushed t.events

(* Account [n] logical events that ran piggybacked on one queue entry
   (coalesced fabric deliveries): keeps events/sec comparable whether or
   not batching merged them. *)
let count_extra_events t n = t.dispatched <- t.dispatched + n

let schedule t ~at f =
  if not (at >= t.clock) then
    invalid_arg
      (if Float.is_nan at then "Engine.schedule: at is NaN"
       else
         Printf.sprintf "Engine.schedule: at=%g is in the past (now=%g)" at
           t.clock);
  Drust_util.Pqueue.push t.events ~time:at f

let schedule_after t dt f = schedule t ~at:(t.clock +. dt) f

(* ------------------------------------------------------------------ *)
(* Park and wake.  A blocking primitive states its request in the
   engine's [park_*] fields and performs [Park]; the handler stores the
   continuation, arms the process's record and hands its waker to
   whatever will call it.  The wake pushes [cont] at the current
   instant, and [cont] continues the process.                          *)

(* The one wake, shared by every primitive: [n] is the park being woken,
   and a park is woken at most once. *)
let wake t p n =
  if n = 0 || n <> p.waiting then failwith "Engine: process resumed twice";
  p.waiting <- 0;
  Drust_util.Pqueue.push t.events ~time:t.clock p.cont

let park_until t at =
  t.park_request <- At_time;
  t.park_time <- at;
  Effect.perform Park

let park t waiters =
  t.park_request <- Into_queue;
  t.park_queue <- waiters;
  Effect.perform Park

let suspend t register =
  let got = ref None in
  t.park_request <- Register;
  t.park_register <-
    (fun p ->
      let n = p.waiting in
      register (fun v ->
          wake t p n;
          got := Some v));
  Effect.perform Park;
  match !got with Some v -> v | None -> assert false

let finish_handle t handle state =
  handle.state <- state;
  let waiters = handle.join_waiters in
  handle.join_waiters <- [];
  List.iter (fun wake -> schedule t ~at:t.clock wake) (List.rev waiters)

(* Run a process body under the engine's deep effect handler. *)
let run_fiber t handle body =
  t.live <- t.live + 1;
  let rec p =
    {
      k = None;
      parks = 0;
      waiting = 0;
      wake = (fun () -> wake t p p.waiting);
      cont =
        (fun () ->
          match p.k with Some k -> continue k () | None -> assert false);
    }
  in
  let on_park =
    Some
      (fun k ->
        p.k <- Some k;
        p.parks <- p.parks + 1;
        p.waiting <- p.parks;
        match t.park_request with
        | At_time -> Drust_util.Pqueue.push t.events ~time:t.park_time p.wake
        | Into_queue -> Queue.push p.wake t.park_queue
        | Register -> t.park_register p)
  in
  let handler : (unit, unit) handler =
    {
      retc =
        (fun () ->
          t.live <- t.live - 1;
          finish_handle t handle Finished);
      exnc =
        (fun e ->
          t.live <- t.live - 1;
          t.failures <- e :: t.failures;
          finish_handle t handle (Failed e));
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Park -> (on_park : ((a, unit) continuation -> unit) option)
          | _ -> None);
    }
  in
  match_with body () handler

let spawn ?at t body =
  let at = match at with None -> t.clock | Some a -> a in
  let handle = { state = Running; join_waiters = [] } in
  schedule t ~at (fun () -> run_fiber t handle body);
  handle

(* Run a process body right now, inside the current event, without a
   queue round-trip.  [spawn ~at t body] is exactly
   [schedule t ~at (fun () -> start_process t body)] minus the handle;
   the fabric's delivery batching uses this to start coalesced handlers
   in their original dispatch positions. *)
let start_process t body =
  let handle = { state = Running; join_waiters = [] } in
  run_fiber t handle body

(* [delay] and [yield] push the waker as its own event, which then
   pushes [cont]: two events per call, as the process sees one timer
   fire and then resumes. *)
let delay t dt =
  if not (dt >= 0.0) then
    invalid_arg
      (if Float.is_nan dt then "Engine.delay: NaN delay"
       else "Engine.delay: negative delay");
  park_until t (t.clock +. dt)

let yield t = park_until t t.clock

let join t handle =
  (match handle.state with
  | Finished | Failed _ -> ()
  | Running ->
      suspend t (fun resume ->
          handle.join_waiters <- resume :: handle.join_waiters));
  match handle.state with
  | Failed e -> raise (Process_failure e)
  | Finished -> ()
  | Running -> assert false

let step t =
  if Drust_util.Pqueue.is_empty t.events then false
  else begin
    let f = Drust_util.Pqueue.pop_exn t.events in
    t.clock <- Drust_util.Pqueue.last_time t.events;
    t.dispatched <- t.dispatched + 1;
    f ();
    true
  end

let run ?until t =
  (match until with
  | None ->
      (* Hot loop: no per-event limit check, no option allocation. *)
      while not (Drust_util.Pqueue.is_empty t.events) do
        let f = Drust_util.Pqueue.pop_exn t.events in
        t.clock <- Drust_util.Pqueue.last_time t.events;
        t.dispatched <- t.dispatched + 1;
        f ()
      done
  | Some limit ->
      let keep_going () =
        match Drust_util.Pqueue.peek_time t.events with
        | None -> false
        | Some next -> next <= limit
      in
      while (not (Drust_util.Pqueue.is_empty t.events)) && keep_going () do
        ignore (step t)
      done);
  match List.rev t.failures with
  | [] -> ()
  | e :: _ ->
      t.failures <- [];
      raise (Process_failure e)

let pending_events t = Drust_util.Pqueue.length t.events
let live_processes t = t.live
