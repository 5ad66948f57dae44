(* dlint fixture: mutable floats in mixed records and array sorts by
   Float.compare.  The other records, the allow and the int sort pass. *)

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

let sort_samples a = Array.sort Float.compare a
let sort_ids a = Array.stable_sort Int.compare a
