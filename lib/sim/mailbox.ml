type 'a t = {
  engine : Engine.t;
  queue : 'a Queue.t;
  receivers : (unit -> unit) Queue.t;
  handed : 'a Queue.t;
      (* values handed to woken receivers that have not run yet: they
         resume in wake order, so each pops its own value *)
}

let create engine =
  {
    engine;
    queue = Queue.create ();
    receivers = Queue.create ();
    handed = Queue.create ();
  }

let send mb v =
  if Queue.is_empty mb.receivers then Queue.push v mb.queue
  else begin
    Queue.push v mb.handed;
    let wake = Queue.pop mb.receivers in
    wake ()
  end

let recv mb =
  if not (Queue.is_empty mb.queue) then Queue.pop mb.queue
  else begin
    Engine.park mb.engine mb.receivers;
    Queue.pop mb.handed
  end

let try_recv mb =
  if Queue.is_empty mb.queue then None else Some (Queue.pop mb.queue)

let length mb = Queue.length mb.queue
let waiters mb = Queue.length mb.receivers
