module Cluster = Drust_machine.Cluster
module Gaddr = Drust_memory.Gaddr
module Metrics = Drust_obs.Metrics
module Flight = Drust_obs.Flight

(* ------------------------------------------------------------------ *)
(* Invariants                                                          *)
(* ------------------------------------------------------------------ *)

type invariant =
  | Single_owner
  | Stale_cache_read
  | Move_invalidation
  | Refcount_sanity
  | Borrow_discipline
  | Lock_discipline
  | Promotion_uniqueness
  | Use_after_free
  | Epoch_monotonic
  | Handoff_atomicity
  | Replica_chain_intact

let invariant_name = function
  | Single_owner -> "dsan.single_owner"
  | Stale_cache_read -> "dsan.stale_cache_read"
  | Move_invalidation -> "dsan.move_invalidation"
  | Refcount_sanity -> "dsan.refcount_sanity"
  | Borrow_discipline -> "dsan.borrow_discipline"
  | Lock_discipline -> "dsan.lock_discipline"
  | Promotion_uniqueness -> "dsan.promotion_uniqueness"
  | Use_after_free -> "dsan.use_after_free"
  | Epoch_monotonic -> "dsan.epoch_monotonic"
  | Handoff_atomicity -> "dsan.handoff_atomicity"
  | Replica_chain_intact -> "dsan.replica_chain_intact"

let all_invariants =
  [
    Single_owner;
    Stale_cache_read;
    Move_invalidation;
    Refcount_sanity;
    Borrow_discipline;
    Lock_discipline;
    Promotion_uniqueness;
    Use_after_free;
    Epoch_monotonic;
    Handoff_atomicity;
    Replica_chain_intact;
  ]

let invariant_names = List.map invariant_name all_invariants

(* Dense index of an invariant — the [b] payload of a flight-recorder
   [dsan_violation] event. *)
let invariant_index inv =
  let rec go i = function
    | [] -> -1
    | x :: rest -> if x = inv then i else go (i + 1) rest
  in
  go 0 all_invariants

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

type report = {
  invariant : invariant;
  time : float;
  node : int;
  thread : int;
  addr : int option;
  detail : string;
  provenance : string list;
}

let pp_report ppf r =
  Format.fprintf ppf "@[<v>DSan violation: %s@,  t=%.9fs  node %d%s%s@,  %s"
    (invariant_name r.invariant)
    r.time r.node
    (if r.thread >= 0 then Printf.sprintf "  thread %d" r.thread else "")
    (match r.addr with
    | None -> ""
    | Some a -> Format.asprintf "  addr %a" Gaddr.pp (Gaddr.of_int_exn a))
    r.detail;
  List.iter (fun l -> Format.fprintf ppf "@,    | %s" l) r.provenance;
  Format.fprintf ppf "@]"

let report_to_string r = Format.asprintf "%a" pp_report r

type mode = Record | Raise

exception Violation of report

let () =
  Printexc.register_printer (function
    | Violation r -> Some (report_to_string r)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Shadow state                                                        *)
(* ------------------------------------------------------------------ *)

(* One observed event, exactly as the flight subscriber received it. *)
type trace = {
  tr_time : float;
  tr_node : int;
  tr_thread : int;
  tr_kind : int;
  tr_a : int;
  tr_b : int;
  tr_c : int;
  tr_d : int;
}

(* Per-entity event history: a bounded, newest-first list of raw events,
   formatted lazily only when a report is built. *)
type histo = { mutable h_items : trace list; mutable h_len : int }

let histo () = { h_items = []; h_len = 0 }

let hist_push h tr =
  h.h_items <- tr :: h.h_items;
  h.h_len <- h.h_len + 1;
  if h.h_len > 16 then begin
    let rec take n = function
      | [] -> []
      | x :: tl -> if n = 0 then [] else x :: take (n - 1) tl
    in
    h.h_items <- take 8 h.h_items;
    h.h_len <- 8
  end

(* The borrow automaton mirrored per physical address. *)
type status = Owned | Shared of int | Mut | Dead

type shadow = {
  mutable sh_color : int;
  mutable sh_status : status;
  mutable sh_home : int;  (* partition range the address lives in *)
  sh_copies : (int, int) Hashtbl.t;  (* node -> color the copy was fetched under *)
  sh_hist : histo;
}

type rc_shadow = {
  mutable rc_expected : int;
  mutable rc_freed : bool;
  rc_hist : histo;
}

type lock_shadow = { mutable lk_holder : int option; lk_hist : histo }

type t = {
  cluster : Cluster.t;
  mode : mode;
  shadows : (int, shadow) Hashtbl.t;
  rcs : (int, rc_shadow) Hashtbl.t;
  locks : (int, lock_shadow) Hashtbl.t;
  serving : int array;
  alive : bool array;
  (* Membership shadow: the highest view epoch observed, the set of
     handoffs prepared but not yet committed/aborted (keyed by home), and
     the hosts reported since the last chain reseed. *)
  mutable last_epoch : int;
  pending_handoffs : (int, int * int) Hashtbl.t; (* home -> (from, to) *)
  mutable chain_hosts : int list;
  mutable reports : report list;  (* newest first *)
  mutable report_count : int;
  counter : Metrics.counter;
  mutable token : int;  (* the flight subscriber slot this sanitizer holds *)
  mutable active : bool;
}

(* A colored address rebuilt from an event's physical address and color. *)
let gstr ~a ~c =
  Format.asprintf "%a" Gaddr.pp (Gaddr.with_color (Gaddr.of_int_exn a) c)

let format_trace tr =
  let line =
    Format.asprintf "%a" Flight.pp_event
      {
        Flight.ev_time = tr.tr_time;
        ev_node = tr.tr_node;
        ev_kind = tr.tr_kind;
        ev_a = tr.tr_a;
        ev_b = tr.tr_b;
        ev_c = tr.tr_c;
        ev_d = tr.tr_d;
      }
  in
  if tr.tr_thread >= 0 then Printf.sprintf "%s [thread %d]" line tr.tr_thread
  else line

(* ------------------------------------------------------------------ *)
(* Violation machinery                                                 *)
(* ------------------------------------------------------------------ *)

(* Report a violation attributed to the event [tr]. *)
let report t tr inv ~addr detail hist =
  let time = tr.tr_time and node = tr.tr_node and thread = tr.tr_thread in
  t.report_count <- t.report_count + 1;
  Metrics.incr t.counter;
  let fl = Cluster.flight t.cluster in
  (* Provenance: the entity's shadow history, then the offending node's
     most recent black-box events (its fabric traffic among them). *)
  let prov =
    (match hist with
    | None -> []
    | Some h -> List.rev_map format_trace h.h_items)
    @ Flight.render_last ~limit:6 (Flight.events fl) ~node
  in
  let r =
    { invariant = inv; time; node; thread; addr; detail; provenance = prov }
  in
  if t.report_count <= 1000 then t.reports <- r :: t.reports;
  (* A violation is the canonical dump trigger: land the event on the
     offending node's ring, then write the black box out while the ring
     tail still explains the failure (docs/FORENSICS.md). *)
  Flight.record fl ~node ~time ~thread ~kind:Flight.k_dsan_violation
    ~a:(match addr with Some a -> a | None -> -1)
    ~b:(invariant_index inv) ~c:thread ~d:0;
  ignore
    (Flight.auto_dump fl
       ~reason:(invariant_name inv ^ ": " ^ detail)
       ?object_:addr ~now:time ());
  match t.mode with Record -> () | Raise -> raise (Violation r)

(* ------------------------------------------------------------------ *)
(* Object events: creation, reads, writes, borrows, transfer, drop     *)
(* ------------------------------------------------------------------ *)

let fresh_shadow ~color ~home =
  {
    sh_color = color;
    sh_status = Owned;
    sh_home = home;
    sh_copies = Hashtbl.create 4;
    sh_hist = histo ();
  }

(* Reads.  [d = 1] on [read_local] (and every [read_remote]) marks a
   read through the reader's own mutable borrow: legal by construction,
   so it is only recorded.  [read_fetch] fires before the fabric
   round-trip, so the color may legally advance while it is in flight. *)
let check_read t tr sh =
  let k = tr.tr_kind and a = tr.tr_a and c = tr.tr_c and d = tr.tr_d in
  if k = Flight.k_read_remote || (k = Flight.k_read_local && d = 1) then ()
  else if sh.sh_status = Dead then
    report t tr Use_after_free ~addr:(Some a)
      (Printf.sprintf "read of dropped object %s" (gstr ~a ~c))
      (Some sh.sh_hist)
  else begin
    if sh.sh_status = Mut then
      report t tr Borrow_discipline ~addr:(Some a)
        (Printf.sprintf "read of %s while mutably borrowed" (gstr ~a ~c))
        (Some sh.sh_hist);
    if k = Flight.k_read_cached && d <> sh.sh_color then
      report t tr Stale_cache_read ~addr:(Some a)
        (Printf.sprintf
           "read served from cached copy %s but the current colored address \
            is c%d"
           (gstr ~a ~c:d) sh.sh_color)
        (Some sh.sh_hist)
    else if k = Flight.k_read_local && c <> sh.sh_color then
      report t tr Stale_cache_read ~addr:(Some a)
        (Printf.sprintf
           "local read through stale address %s (current color c%d)"
           (gstr ~a ~c) sh.sh_color)
        (Some sh.sh_hist)
  end

(* Writes: [a] is the physical address after, [b] the one before
   (bump/move), [c] the new color, [d] the new home. *)
let observe_write t tr =
  let k = tr.tr_kind and pa = tr.tr_a and c = tr.tr_c in
  let pb = if k = Flight.k_write_inplace then pa else tr.tr_b in
  match Hashtbl.find_opt t.shadows pb with
  | None ->
      (* lineage unknown (created before attach): start tracking *)
      let sh = fresh_shadow ~color:c ~home:tr.tr_d in
      Hashtbl.replace t.shadows pa sh;
      hist_push sh.sh_hist tr
  | Some sh ->
      (match sh.sh_status with
      | Dead ->
          report t tr Use_after_free ~addr:(Some pb)
            (Printf.sprintf "write to dropped object %s"
               (gstr ~a:pb ~c:sh.sh_color))
            (Some sh.sh_hist)
      | Shared n ->
          report t tr Borrow_discipline ~addr:(Some pb)
            (Printf.sprintf
               "write to %s while %d immutable borrow(s) outstanding"
               (gstr ~a:pb ~c:sh.sh_color) n)
            (Some sh.sh_hist)
      | Owned | Mut -> ());
      if k = Flight.k_write_inplace then begin
        let reachable =
          Drust_util.Tables.sorted_bindings sh.sh_copies ~cmp:Int.compare
          |> List.filter_map (fun (n, col) ->
                 if col = sh.sh_color then Some n else None)
        in
        if reachable <> [] then
          report t tr Move_invalidation ~addr:(Some pb)
            (Printf.sprintf
               "in-place write at %s with cached copies still reachable under \
                the current color on node(s) %s — a move or color bump must \
                make prior copies unreachable before the value changes"
               (gstr ~a:pa ~c)
               (String.concat ", " (List.map string_of_int reachable)))
            (Some sh.sh_hist)
      end
      else if k = Flight.k_write_bump then sh.sh_color <- c
      else begin
        Hashtbl.remove t.shadows pb;
        (match Hashtbl.find_opt t.shadows pa with
        | Some other when other.sh_status <> Dead ->
            report t tr Single_owner ~addr:(Some pa)
              (Printf.sprintf "move of %s onto live address %s"
                 (gstr ~a:pb ~c:sh.sh_color) (gstr ~a:pa ~c))
              (Some other.sh_hist)
        | _ -> ());
        (* the old address's copies belong to a dead lineage now; their
           invalidations will no-op against this shadow *)
        Hashtbl.reset sh.sh_copies;
        sh.sh_color <- c;
        sh.sh_home <- tr.tr_d;
        Hashtbl.replace t.shadows pa sh
      end;
      hist_push sh.sh_hist tr

(* The object an event is about, as a colored address (reports only). *)
let obj tr = gstr ~a:tr.tr_a ~c:tr.tr_c

let borrow_violation t tr sh fmt =
  Printf.ksprintf
    (fun detail ->
      report t tr Borrow_discipline ~addr:(Some tr.tr_a) detail
        (Some sh.sh_hist))
    fmt

(* The borrow automaton, ownership transfer and drop. *)
let check_ownership t tr sh =
  let k = tr.tr_kind in
  match sh.sh_status with
  | Dead ->
      let what =
        if k = Flight.k_borrow_imm then "immutable borrow of dropped object"
        else if k = Flight.k_return_imm then "immutable return on dropped object"
        else if k = Flight.k_borrow_mut then "mutable borrow of dropped object"
        else if k = Flight.k_return_mut then "mutable return on dropped object"
        else if k = Flight.k_transfer then "ownership transfer of dropped object"
        else "double drop of"
      in
      report t tr Use_after_free ~addr:(Some tr.tr_a)
        (Printf.sprintf "%s %s" what (obj tr))
        (Some sh.sh_hist)
  | status ->
      if k = Flight.k_borrow_imm then (
        match status with
        | Mut ->
            borrow_violation t tr sh
              "immutable borrow of %s while mutably borrowed" (obj tr)
        | Shared n -> sh.sh_status <- Shared (n + 1)
        | Owned | Dead -> sh.sh_status <- Shared 1)
      else if k = Flight.k_return_imm then (
        match status with
        | Shared 1 -> sh.sh_status <- Owned
        | Shared n -> sh.sh_status <- Shared (n - 1)
        | Owned | Mut | Dead ->
            borrow_violation t tr sh "unbalanced immutable return on %s"
              (obj tr))
      else if k = Flight.k_borrow_mut then (
        match status with
        | Shared n ->
            borrow_violation t tr sh
              "mutable borrow of %s while %d immutable borrow(s) outstanding"
              (obj tr) n
        | Mut -> borrow_violation t tr sh "second mutable borrow of %s" (obj tr)
        | Owned | Dead -> sh.sh_status <- Mut)
      else if k = Flight.k_return_mut then (
        match status with
        | Mut -> sh.sh_status <- Owned
        | Owned | Shared _ | Dead ->
            borrow_violation t tr sh "unbalanced mutable return on %s" (obj tr))
      else if k = Flight.k_transfer then (
        match status with
        | Shared _ | Mut ->
            borrow_violation t tr sh "ownership transfer of %s while borrowed"
              (obj tr)
        | Owned | Dead -> ())
      else begin
        (match status with
        | Shared _ | Mut ->
            borrow_violation t tr sh "drop of %s while borrowed" (obj tr)
        | Owned | Dead -> ());
        sh.sh_status <- Dead
      end

let observe_object t tr =
  let k = tr.tr_kind and a = tr.tr_a in
  if k = Flight.k_create then begin
    (match Hashtbl.find_opt t.shadows a with
    | Some sh when sh.sh_status <> Dead ->
        report t tr Single_owner ~addr:(Some a)
          (Printf.sprintf
             "second owner registered at %s while the address is live" (obj tr))
          (Some sh.sh_hist)
    | _ -> ());
    let sh = fresh_shadow ~color:tr.tr_c ~home:tr.tr_b in
    Hashtbl.replace t.shadows a sh;
    hist_push sh.sh_hist tr
  end
  else if k >= Flight.k_write_inplace && k <= Flight.k_write_move then
    observe_write t tr
  else
    match Hashtbl.find_opt t.shadows a with
    | None -> ()
    | Some sh ->
        if k <= Flight.k_read_remote then check_read t tr sh
        else check_ownership t tr sh;
        hist_push sh.sh_hist tr

(* ------------------------------------------------------------------ *)
(* Cache events                                                        *)
(* ------------------------------------------------------------------ *)

let observe_cache t tr =
  let k = tr.tr_kind and p = tr.tr_a and node = tr.tr_node in
  let sh = Hashtbl.find_opt t.shadows p in
  (match sh with
  | Some s when k = Flight.k_cache_hit && s.sh_status <> Dead ->
      if tr.tr_c <> s.sh_color then
        report t tr Stale_cache_read ~addr:(Some p)
          (Printf.sprintf
             "cache on node %d served a hit for %s whose color is stale \
              (current c%d)"
             node (obj tr) s.sh_color)
          (Some s.sh_hist)
  | Some s when k = Flight.k_cache_insert && s.sh_status <> Dead ->
      Hashtbl.replace s.sh_copies node tr.tr_c
  | Some s when k = Flight.k_cache_invalidate -> Hashtbl.remove s.sh_copies node
  | _ -> ());
  if k = Flight.k_cache_release && tr.tr_b < 0 then
    report t tr Refcount_sanity ~addr:(Some p)
      (Printf.sprintf "cache copy pin count underflow on node %d (rc=%d)" node
         tr.tr_b)
      (Option.map (fun s -> s.sh_hist) sh);
  match sh with Some s -> hist_push s.sh_hist tr | None -> ()

(* ------------------------------------------------------------------ *)
(* Refcount events (darc + drc): [b] is the implementation's count     *)
(* ------------------------------------------------------------------ *)

let track_rc t tr ~expected =
  let r = { rc_expected = expected; rc_freed = false; rc_hist = histo () } in
  Hashtbl.replace t.rcs tr.tr_a r;
  hist_push r.rc_hist tr

let observe_rc t tr =
  let k = tr.tr_kind and p = tr.tr_a and count = tr.tr_b in
  match Hashtbl.find_opt t.rcs p with
  | rc when k = Flight.k_rc_create ->
      if count <> 1 then
        report t tr Refcount_sanity ~addr:(Some p)
          (Printf.sprintf "refcounted cell %s created with count %d, not 1"
             (obj tr) count)
          (Option.map (fun r -> r.rc_hist) rc);
      track_rc t tr ~expected:count
  | None -> if k = Flight.k_rc_retain then track_rc t tr ~expected:count
  | Some r ->
      let viol inv detail =
        report t tr inv ~addr:(Some p) detail (Some r.rc_hist)
      in
      let verb = if k = Flight.k_rc_retain then "retain" else "release" in
      if r.rc_freed then
        viol Use_after_free
          (if k = Flight.k_rc_free then
             Printf.sprintf "double free of cell %s" (obj tr)
           else Printf.sprintf "%s of freed cell %s" verb (obj tr))
      else if k = Flight.k_rc_free then begin
        if r.rc_expected <> 0 then
          viol Refcount_sanity
            (Printf.sprintf "cell %s freed with nonzero refcount (%d)" (obj tr)
               r.rc_expected);
        r.rc_freed <- true
      end
      else begin
        r.rc_expected <-
          (if k = Flight.k_rc_retain then r.rc_expected + 1
           else r.rc_expected - 1);
        if count <> r.rc_expected then begin
          viol Refcount_sanity
            (Printf.sprintf
               "refcount diverged on %s of %s: implementation says %d, shadow \
                says %d"
               verb (obj tr) count r.rc_expected);
          r.rc_expected <- count
        end;
        if k = Flight.k_rc_release && r.rc_expected < 0 then
          viol Refcount_sanity
            (Printf.sprintf "refcount of %s went negative (%d)" (obj tr)
               r.rc_expected)
      end;
      hist_push r.rc_hist tr

(* ------------------------------------------------------------------ *)
(* Lock events: [b] is the acting thread                               *)
(* ------------------------------------------------------------------ *)

let lock_violation t tr l fmt =
  Printf.ksprintf
    (fun detail ->
      report t tr Lock_discipline ~addr:(Some tr.tr_a) detail (Some l.lk_hist))
    fmt

let fresh_lock t p =
  let l = { lk_holder = None; lk_hist = histo () } in
  Hashtbl.replace t.locks p l;
  l

let observe_lock t tr =
  let k = tr.tr_kind and p = tr.tr_a and th = tr.tr_b in
  match Hashtbl.find_opt t.locks p with
  | _ when k = Flight.k_lock_create -> hist_push (fresh_lock t p).lk_hist tr
  | l when k = Flight.k_lock_acquire ->
      let l = match l with Some l -> l | None -> fresh_lock t p in
      (match l.lk_holder with
      | Some h ->
          lock_violation t tr l
            "lock %s granted to thread %d while held by thread %d" (obj tr) th h
      | None -> ());
      l.lk_holder <- Some th;
      hist_push l.lk_hist tr
  | None -> ()
  | Some l ->
      (match l.lk_holder with
      | Some h when h = th -> l.lk_holder <- None
      | Some h ->
          lock_violation t tr l
            "lock %s released by thread %d but held by thread %d" (obj tr) th h
      | None ->
          lock_violation t tr l "lock %s released by thread %d while unheld"
            (obj tr) th);
      hist_push l.lk_hist tr

(* ------------------------------------------------------------------ *)
(* Failover events                                                     *)
(* ------------------------------------------------------------------ *)

(* Shared by failover promotion and planned handoff commit: once a range
   changes server, no alive cache may still hold a copy of it — a lagging
   replica (failover) or the old server's image (handoff) would otherwise
   keep serving superseded values under still-current colors. *)
let check_range_purged t tr ~why ~home =
  (* Address-sorted so any violation report lists objects in a stable
     order, not the shadow table's bucket order. *)
  List.iter
    (fun (p, sh) ->
      if sh.sh_home = home && sh.sh_status <> Dead then begin
        let survivors =
          Drust_util.Tables.sorted_keys sh.sh_copies ~cmp:Int.compare
          |> List.filter (fun n -> n < Array.length t.alive && t.alive.(n))
        in
        if survivors <> [] then begin
          report t tr Move_invalidation ~addr:(Some p)
            (Printf.sprintf
               "cached copies of range %d survived %s on node(s) %s" home why
               (String.concat ", " (List.map string_of_int survivors)))
            (Some sh.sh_hist);
          hist_push sh.sh_hist tr
        end
      end)
    (Drust_util.Tables.sorted_bindings t.shadows ~cmp:Int.compare)

let range_violation t tr inv detail = report t tr inv ~addr:None detail None

let is_alive t n = n >= 0 && n < Array.length t.alive && t.alive.(n)

let observe_failover t tr =
  if tr.tr_kind = Flight.k_node_failed then begin
    let n = tr.tr_a in
    if n >= 0 && n < Array.length t.alive then t.alive.(n) <- false
  end
  else begin
    let home = tr.tr_a and by = tr.tr_b in
    let viol inv fmt = Printf.ksprintf (range_violation t tr inv) fmt in
    let cur = if home < Array.length t.serving then t.serving.(home) else by in
    if is_alive t cur then
      viol Promotion_uniqueness
        "range %d promoted to node %d while node %d still serves it alive" home
        by cur;
    if by < Array.length t.alive && not t.alive.(by) then
      viol Promotion_uniqueness "range %d promoted to dead node %d" home by;
    (* A failover promotion may race a planned handoff of the same range
       (server died mid-transfer): the coordinator aborts its side when
       the copy fails, and the prepare record is cleared here.  Both
       endpoints still being alive means the promotion had no business
       pre-empting the handoff. *)
    (match Hashtbl.find_opt t.pending_handoffs home with
    | Some (f, to_) ->
        if is_alive t f && is_alive t to_ then
          viol Handoff_atomicity
            "failover promotion of range %d raced a live handoff %d -> %d" home
            f to_;
        Hashtbl.remove t.pending_handoffs home
    | None -> ());
    if home < Array.length t.serving then t.serving.(home) <- by;
    (* After a promotion the surviving caches must hold no copy of the
       promoted range: the replica may lag the lost primary, so those
       copies can carry rolled-back values under still-current colors. *)
    check_range_purged t tr ~why:"failover" ~home
  end

(* ------------------------------------------------------------------ *)
(* Membership events                                                   *)
(* ------------------------------------------------------------------ *)

let observe_membership t tr =
  let k = tr.tr_kind and home = tr.tr_a in
  let viol inv fmt = Printf.ksprintf (range_violation t tr inv) fmt in
  let check_epoch epoch =
    if epoch <= t.last_epoch then
      viol Epoch_monotonic
        "view epoch moved backwards or repeated: saw e%d after e%d" epoch
        t.last_epoch
    else t.last_epoch <- epoch
  in
  let serving_mismatch n =
    home < Array.length t.serving && t.serving.(home) <> n
  in
  if k = Flight.k_view_change then check_epoch tr.tr_a
  else if k = Flight.k_handoff_prepare then begin
    let from_node = tr.tr_b and to_node = tr.tr_c in
    if Hashtbl.mem t.pending_handoffs home then
      viol Handoff_atomicity
        "second handoff of range %d prepared while one is in flight" home;
    if serving_mismatch from_node then
      viol Handoff_atomicity
        "handoff of range %d prepared from node %d, but node %d serves it" home
        from_node t.serving.(home);
    if not (is_alive t to_node) then
      viol Handoff_atomicity "handoff of range %d prepared toward dead node %d"
        home to_node;
    Hashtbl.replace t.pending_handoffs home (from_node, to_node)
  end
  else if k = Flight.k_handoff_commit then begin
    let from_node = tr.tr_b and to_node = tr.tr_c in
    (match Hashtbl.find_opt t.pending_handoffs home with
    | None ->
        viol Handoff_atomicity "handoff of range %d committed without a prepare"
          home
    | Some (f, to_) ->
        if f <> from_node || to_ <> to_node then
          viol Handoff_atomicity
            "handoff commit of range %d (%d -> %d) does not match its prepare \
             (%d -> %d)"
            home from_node to_node f to_);
    Hashtbl.remove t.pending_handoffs home;
    (* The serving swap must be a single step from the preparing server to
       the target: anything else means a window with zero or two servers
       for the range. *)
    if serving_mismatch from_node then
      viol Handoff_atomicity
        "handoff commit of range %d from node %d, but node %d serves it — the \
         range had two servers"
        home from_node t.serving.(home);
    if not (is_alive t to_node) then
      viol Handoff_atomicity
        "range %d handed off to dead node %d — the range has zero servers" home
        to_node;
    if home < Array.length t.serving then t.serving.(home) <- to_node;
    check_epoch tr.tr_d;
    check_range_purged t tr ~why:"handoff" ~home
  end
  else if k = Flight.k_handoff_abort then begin
    (* No pending record is legal: a failover promotion that raced the
       crash may have cleared it already. *)
    match Hashtbl.find_opt t.pending_handoffs home with
    | None -> ()
    | Some (f, to_) ->
        if f <> tr.tr_b || to_ <> tr.tr_c then
          viol Handoff_atomicity
            "handoff abort of range %d (%d -> %d) does not match its prepare \
             (%d -> %d)"
            home tr.tr_b tr.tr_c f to_;
        Hashtbl.remove t.pending_handoffs home
  end
  else if k = Flight.k_chain_reseed then begin
    (* [c] hosts follow as [chain_host] events. *)
    t.chain_hosts <- [];
    if tr.tr_c = 0 then
      viol Replica_chain_intact
        "range %d has no alive replica host after reseeding" home;
    if serving_mismatch tr.tr_b then
      viol Replica_chain_intact
        "range %d reseeded around server %d, but node %d serves it" home
        tr.tr_b t.serving.(home)
  end
  else begin
    let host = tr.tr_b and server = tr.tr_c in
    if List.mem host t.chain_hosts then
      viol Replica_chain_intact "range %d reseeded twice onto the same host %d"
        home host;
    t.chain_hosts <- host :: t.chain_hosts;
    if not (is_alive t host) then
      viol Replica_chain_intact "range %d reseeded onto dead node %d" home host;
    if host = server then
      viol Replica_chain_intact "range %d replica co-located with its server %d"
        home host
  end

(* ------------------------------------------------------------------ *)
(* The subscriber: decode one flight event                             *)
(* ------------------------------------------------------------------ *)

let[@inline] within k lo hi = k >= lo && k <= hi

let observe t ~time ~node ~thread ~kind ~a ~b ~c ~d =
  (* Fabric, fault and violation events carry nothing the shadow
     tracks. *)
  if
    kind <= Flight.k_create
    || within kind Flight.k_view_change Flight.k_promoted
    || kind >= Flight.ring_kinds
  then begin
    let tr =
      {
        tr_time = time;
        tr_node = node;
        tr_thread = thread;
        tr_kind = kind;
        tr_a = a;
        tr_b = b;
        tr_c = c;
        tr_d = d;
      }
    in
    if
      kind <= Flight.k_create
      || within kind Flight.k_borrow_imm Flight.k_return_mut
    then observe_object t tr
    else if within kind Flight.k_cache_hit Flight.k_cache_invalidate then
      observe_cache t tr
    else if within kind Flight.k_rc_create Flight.k_rc_free then
      observe_rc t tr
    else if within kind Flight.k_lock_create Flight.k_lock_release then
      observe_lock t tr
    else if within kind Flight.k_node_failed Flight.k_promoted then
      observe_failover t tr
    else if
      within kind Flight.k_view_change Flight.k_chain_reseed
      || kind = Flight.k_chain_host
    then observe_membership t tr
  end

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let attach ?(mode = Record) cluster =
  let n = Cluster.node_count cluster in
  let t =
    {
      cluster;
      mode;
      shadows = Hashtbl.create 1024;
      rcs = Hashtbl.create 64;
      locks = Hashtbl.create 16;
      serving = Array.init n (Cluster.serving_node cluster);
      alive = Array.map (fun nd -> nd.Cluster.alive) (Cluster.nodes cluster);
      last_epoch = 0;
      pending_handoffs = Hashtbl.create 4;
      chain_hosts = [];
      reports = [];
      report_count = 0;
      counter =
        Metrics.counter (Cluster.metrics cluster)
          ~help:"DSan invariant violations detected" "dsan.violations";
      token = 0;
      active = true;
    }
  in
  t.token <- Flight.subscribe (Cluster.flight cluster) (observe t);
  t

(* Only clears the slot if this sanitizer still holds it: a sanitizer
   attached later has replaced it and keeps observing. *)
let detach t =
  if t.active then begin
    t.active <- false;
    Flight.unsubscribe (Cluster.flight t.cluster) t.token
  end

let mode t = t.mode
let cluster t = t.cluster
let violations t = List.rev t.reports
let violation_count t = t.report_count

let clear t =
  t.reports <- [];
  t.report_count <- 0

let with_sanitizer ?mode cluster f =
  let t = attach ?mode cluster in
  Fun.protect ~finally:(fun () -> detach t) (fun () -> f t)

(* The auto-attach list is the one deliberate process-global here: it
   spans clusters by design.  The mutex makes it safe to create clusters
   from parallel sweep domains. *)
let auto : t list ref =
  ref []
[@@dlint.allow
  "globals: install_global attaches one sanitizer per future cluster — \
   cross-cluster by design, mutex-protected"]
let auto_mutex = Mutex.create ()

let install_global ?mode () =
  Cluster.set_create_hook
    (Some
       (fun c ->
         let t = attach ?mode c in
         Mutex.protect auto_mutex (fun () -> auto := t :: !auto)))

let uninstall_global () = Cluster.set_create_hook None
let attached () = Mutex.protect auto_mutex (fun () -> List.rev !auto)
let global_reports () = List.concat_map violations (attached ())
