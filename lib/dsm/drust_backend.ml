module Ctx = Drust_machine.Ctx
module Cluster = Drust_machine.Cluster
module Protocol = Drust_core.Protocol
module Dmutex = Drust_runtime.Dmutex
module Gaddr = Drust_memory.Gaddr
module Univ = Drust_util.Univ

type Dsm.handle += H of Protocol.owner
type Dsm.mutex += M of Dmutex.t

let unit_tag : unit Univ.tag = Univ.create_tag ~name:"drust.mutex.unit"

let owner_of = function H o -> o | _ -> Dsm.foreign "drust"
let mutex_of = function M m -> m | _ -> Dsm.foreign "drust"

(* The Dsm interface lets applications race a reader against a writer on
   the same object (e.g. polling a shared index entry while its builder
   publishes it).  Under real DRust such code holds borrows for an
   instant each; when two instants collide, the loser simply borrows a
   moment later.  We model that by retrying the borrow after a short
   backoff when the dynamic checker reports a conflict.  [once] is one
   of the toplevel borrow-access-drop bodies below and takes its
   arguments alongside, so an access builds no closure. *)
let rec with_borrow_retry ctx tries once o x =
  match once ctx o x with
  | v -> v
  | exception Drust_ownership.Borrow_state.Violation _ when tries < 200_000 ->
      Drust_sim.Engine.delay (Ctx.engine ctx) 1e-6;
      with_borrow_retry ctx (tries + 1) once o x

let read_once ctx o () =
  let r = Protocol.borrow_imm ctx o in
  let v = Protocol.imm_deref ctx r in
  Protocol.drop_imm ctx r;
  v

let write_once ctx o v =
  let m = Protocol.borrow_mut ctx o in
  Protocol.mut_write ctx m v;
  Protocol.drop_mut ctx m

let update_once ctx o f =
  let m = Protocol.borrow_mut ctx o in
  Protocol.mut_modify ctx m f;
  Protocol.drop_mut ctx m

let read ctx h = with_borrow_retry ctx 0 read_once (owner_of h) ()
let write ctx h v = with_borrow_retry ctx 0 write_once (owner_of h) v
let update ctx h f = with_borrow_retry ctx 0 update_once (owner_of h) f

let create cluster =
  ignore cluster;
  {
    Dsm.name = "DRust";
    alloc = (fun ctx ~size v -> H (Protocol.create ctx ~size v));
    alloc_on = (fun ctx ~node ~size v -> H (Protocol.create_on ctx ~node ~size v));
    read;
    write;
    update;
    free = (fun ctx h -> Protocol.drop_owner ctx (owner_of h));
    read_part = (fun ctx h ~bytes:_ -> ignore (read ctx h));
    process =
      (fun ctx h ~cycles ->
        let v = read ctx h in
        Ctx.compute ctx ~cycles;
        v);
    process_update =
      (fun ctx h ~cycles f ->
        update ctx h f;
        Ctx.compute ctx ~cycles);
    home =
      (fun h ->
        let o = owner_of h in
        Gaddr.node_of (Protocol.gaddr o));
    tie =
      (fun ctx ~parent ~child ->
        Protocol.tie ctx ~parent:(owner_of parent) ~child:(owner_of child));
    supports_affinity = true;
    mutex_create =
      (fun ctx -> M (Dmutex.create ctx ~size:8 (Univ.pack unit_tag ())));
    mutex_lock =
      (fun ctx m ->
        (Dmutex.lock ctx (mutex_of m)
        [@dlint.allow
          "ownership: vtable delegation — the Dsm API pairs lock/unlock at \
           the call site and DSan's lock_discipline invariant enforces it"]));
    mutex_unlock = (fun ctx m -> Dmutex.unlock ctx (mutex_of m));
  }
