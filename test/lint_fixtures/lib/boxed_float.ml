(* dlint fixture: mutable float fields beside non-float fields.  The
   all-float record, the immutable float and the allowed field pass. *)

type mixed = { name : string; mutable level : float; mutable hits : int }
type flat = { mutable sum : float; mutable lo : Float.t }
type frozen = { label : string; scale : float }

type allowed = {
  owner : int;
  mutable cold : float; [@dlint.allow "boxed-float: fixture — written once"]
}

module Inner = struct
  type t = { id : int; mutable at : Float.t }
end
