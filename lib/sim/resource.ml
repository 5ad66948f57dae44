type t = {
  engine : Engine.t;
  capacity : int;
  mutable held : int;
  waiters : (unit -> unit) Queue.t;
  (* Utilization integral: sum over time of (held / capacity). *)
  mutable util_area : float;
  mutable util_since : float;
  mutable last_change : float;
}

let create engine ~capacity =
  if capacity <= 0 then invalid_arg "Resource.create: capacity must be positive";
  {
    engine;
    capacity;
    held = 0;
    waiters = Queue.create ();
    util_area = 0.0;
    util_since = Engine.now engine;
    last_change = Engine.now engine;
  }

let capacity t = t.capacity
let in_use t = t.held
let queued t = Queue.length t.waiters

let account t =
  let now = Engine.now t.engine in
  let dt = now -. t.last_change in
  if dt > 0.0 then
    t.util_area <-
      t.util_area +. (dt *. (Float.of_int t.held /. Float.of_int t.capacity));
  t.last_change <- now

let acquire t =
  if t.held < t.capacity && Queue.is_empty t.waiters then begin
    account t;
    t.held <- t.held + 1
  end
  else
    (* The releaser transfers its unit to us: [held] stays constant. *)
    Engine.park t.engine t.waiters

let release t =
  if t.held <= 0 then invalid_arg "Resource.release: nothing held";
  if Queue.is_empty t.waiters then begin
    account t;
    t.held <- t.held - 1
  end
  else
    (* Hand the unit over without dropping [held]: the waiter resumes
       holding it, so utilization accounting sees no gap. *)
    let wake = Queue.pop t.waiters in
    wake ()

let use t f =
  acquire t;
  match f () with
  | v ->
      release t;
      v
  | exception e ->
      release t;
      raise e

let busy_fraction t = Float.of_int t.held /. Float.of_int t.capacity

let utilization t ~now =
  let span = now -. t.util_since in
  if span <= 0.0 then 0.0
  else begin
    let live = (now -. t.last_change) *. busy_fraction t in
    (t.util_area +. live) /. span
  end

let reset_utilization t ~now =
  t.util_area <- 0.0;
  t.util_since <- now;
  t.last_change <- now
