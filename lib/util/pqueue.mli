(** Priority queue keyed by (time, sequence).

    The simulation engine pops the earliest pending event on every step; the
    sequence number breaks ties so that events scheduled at the same instant
    fire in insertion order, which keeps simulations deterministic.

    Internally this is a hybrid calendar/flat-array structure: a FIFO ring
    for events at the current instant, fixed-width calendar buckets for the
    near-horizon window, and a flat binary heap as overflow for far-future
    timers.  Dispatch order is identical to a plain (time, seq) binary
    heap; see docs/PERFORMANCE.md for the design. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool
val length : 'a t -> int

val pushed : 'a t -> int
(** [pushed t] is the total number of pushes ever performed — the next
    sequence number.  Monotone; never reset by {!pop} or {!clear}'s
    draining.  The fabric uses it to prove no event was interleaved
    between two pushes when coalescing deliveries. *)

val push : 'a t -> time:float -> 'a -> unit
(** [push t ~time v] inserts [v] at priority [time]. *)

val pop : 'a t -> (float * 'a) option
(** [pop t] removes and returns the minimum-time element, FIFO among
    equal times. *)

val pop_exn : 'a t -> 'a
(** Variant of {!pop} that returns the value alone and leaves its
    timestamp readable via {!last_time}.  It boxes the timestamp only
    when it differs from the previous pop's, so a pop at the current
    instant allocates nothing.  Raises [Invalid_argument] on an empty
    queue. *)

val last_time : 'a t -> float
(** Time of the most recently popped element ([neg_infinity] before the
    first pop). *)

val peek_time : 'a t -> float option
(** [peek_time t] is the time of the next element without removing it. *)

val clear : 'a t -> unit
