module View = Uln_buf.View

type vacuity = Always_false | Always_true | Satisfiable

type report = {
  vacuity : vacuity;
  min_accept_len : int option;
  wcet_interp : int;
  wcet_compiled : int;
  max_depth : int;
  conjunctive : bool;
}

type error =
  | Vacuous_always_false
  | Over_budget of { wcet : int; budget : int }

exception Rejected of error

let pp_vacuity ppf = function
  | Always_false -> Format.pp_print_string ppf "always-false"
  | Always_true -> Format.pp_print_string ppf "always-true"
  | Satisfiable -> Format.pp_print_string ppf "satisfiable"

let pp_error ppf = function
  | Vacuous_always_false ->
      Format.pp_print_string ppf "vacuous filter: provably rejects every packet"
  | Over_budget { wcet; budget } ->
      Format.fprintf ppf "over budget: worst-case %d cycles exceeds the %d-cycle budget" wcet
        budget

let report_of_absint (a : Absint.result) =
  { vacuity =
      (if a.Absint.r_always_false then Always_false
       else if a.Absint.r_always_true then Always_true
       else Satisfiable);
    min_accept_len = a.Absint.r_min_accept_len;
    wcet_interp = a.Absint.r_wcet_interp;
    wcet_compiled = a.Absint.r_wcet_compiled;
    max_depth = a.Absint.r_max_depth;
    conjunctive = a.Absint.r_conjunctive }

let analyze program = report_of_absint (Absint.analyze program)

let admit_analyzed ?budget ?(compiled = false) a =
  let r = report_of_absint a in
  if r.vacuity = Always_false then Error Vacuous_always_false
  else
    let wcet = if compiled then r.wcet_compiled else r.wcet_interp in
    match budget with
    | Some b when wcet > b -> Error (Over_budget { wcet; budget = b })
    | _ -> Ok r

let admit ?budget ?compiled program = admit_analyzed ?budget ?compiled (Absint.analyze program)

(* --- overlap and subsumption ------------------------------------------- *)

(* Merge two offset-sorted byte-constraint lists; [None] on conflict.
   Sortedness puts every pin of one offset next to each other in the
   merged walk, so comparing against the last pin kept is enough — also
   for a duplicate or self-contradicting offset within one list. *)
let merge_constraints c1 c2 =
  let rec go acc c1 c2 =
    match (c1, c2) with
    | [], [] -> Some (List.rev acc)
    | ((o1, _) as x) :: r1, (o2, _) :: _ when o1 <= o2 -> keep acc x r1 c2
    | x :: r1, [] -> keep acc x r1 c2
    | _, x :: r2 -> keep acc x c1 r2
  and keep acc ((o, v) as x) c1 c2 =
    match acc with
    | (o', v') :: _ when o' = o -> if v' = v then go acc c1 c2 else None
    | _ -> go (x :: acc) c1 c2
  in
  go [] c1 c2

let witness_of ~len constraints =
  let v = View.create len in
  List.iter (fun (o, b) -> if o < len then View.set_uint8 v o b) constraints;
  v

(* Witness search over pairs of accept paths; [accepts1]/[accepts2] are
   the programs' real verdicts. *)
let witness_search accepts1 (r1 : Absint.result) accepts2 (r2 : Absint.result) =
  let try_pair (a1 : Absint.accept_path) (a2 : Absint.accept_path) =
    match merge_constraints a1.Absint.ap_constraints a2.Absint.ap_constraints with
    | None -> None
    | Some merged ->
        let len = Stdlib.max a1.Absint.ap_min_len a2.Absint.ap_min_len in
        let w = witness_of ~len merged in
        (* The constraint sets may be incomplete ([ap_exact] false), so a
           candidate is only a witness once both programs concretely
           accept it: the flag always comes with a checked packet. *)
        if accepts1 w && accepts2 w then Some w else None
  in
  List.find_map
    (fun a1 -> List.find_map (fun a2 -> try_pair a1 a2) r2.Absint.r_accept_paths)
    r1.Absint.r_accept_paths

let overlap_witness_analyzed (p1, r1) (p2, r2) =
  witness_search (Interp.run p1) r1 (Interp.run p2) r2

let overlap_witness p1 p2 =
  overlap_witness_analyzed (p1, Absint.analyze p1) (p2, Absint.analyze p2)

let subsumes_analyzed ~(general : Absint.result) ~(specific : Absint.result) =
  match (general.Absint.r_accept_paths, specific.Absint.r_accept_paths) with
  | [ ag ], [ as_ ] when general.Absint.r_conjunctive && specific.Absint.r_conjunctive ->
      ag.Absint.ap_min_len <= as_.Absint.ap_min_len
      && List.for_all
           (fun (o, v) -> List.mem (o, v) as_.Absint.ap_constraints)
           ag.Absint.ap_constraints
  | _ -> false

let subsumes ~general ~specific =
  subsumes_analyzed ~general:(Absint.analyze general) ~specific:(Absint.analyze specific)

let conflict_analyzed (p1, r1) (p2, r2) =
  match overlap_witness_analyzed (p1, r1) (p2, r2) with
  | Some w
    when not (subsumes_analyzed ~general:r1 ~specific:r2 || subsumes_analyzed ~general:r2 ~specific:r1)
    ->
      Some w
  | _ -> None

(* The analysis of a conjunctive-exact filter is its one accept path:
   the constraints and the length; its costs play no part in overlap. *)
let exact_analysis ~constraints ~min_len =
  { Absint.r_always_false = false;
    r_always_true = false;
    r_min_accept_len = Some min_len;
    r_wcet_interp = 0;
    r_wcet_compiled = 0;
    r_max_depth = 0;
    r_accept_paths =
      [ { Absint.ap_at = None;
          ap_min_len = min_len;
          ap_cycles = 0;
          ap_constraints = constraints;
          ap_exact = true } ];
    r_conjunctive = true }

(* An exact filter accepts every candidate [witness_search] builds for
   it: the candidate carries its constraints and is at least its length
   long.  So only the first program runs. *)
let conflict_exact (p1, r1) ~constraints ~min_len =
  let r2 = exact_analysis ~constraints ~min_len in
  match witness_search (Interp.run p1) r1 (fun _ -> true) r2 with
  | Some w
    when not (subsumes_analyzed ~general:r1 ~specific:r2 || subsumes_analyzed ~general:r2 ~specific:r1)
    ->
      Some w
  | _ -> None

(* --- template consistency ---------------------------------------------- *)

type template_error =
  | Template_inconsistent of { offset : int }
  | Impersonation_hole of { offset : int }

let pp_template_error ppf = function
  | Template_inconsistent { offset } ->
      Format.fprintf ppf
        "template self-contradiction: overlapping constraints at byte %d disagree" offset
  | Impersonation_hole { offset } ->
      Format.fprintf ppf
        "anti-impersonation hole: the receive filter pins the local address but the send \
         template leaves source byte %d unconstrained or different"
        offset

(* Per-byte (mask, value) view of a template's 16-bit word fields. *)
let template_bytes tpl =
  let tbl : (int, int * int) Hashtbl.t = Hashtbl.create 16 in
  let conflict = ref None in
  let add off mask value =
    if mask <> 0 then
      match Hashtbl.find_opt tbl off with
      | None -> Hashtbl.replace tbl off (mask, value land mask)
      | Some (m, v) ->
          let common = m land mask in
          if v land common <> value land mask land common then (
            if !conflict = None then conflict := Some off)
          else Hashtbl.replace tbl off (m lor mask, v lor (value land mask))
  in
  List.iter
    (fun (f : Template.field) ->
      add f.Template.offset ((f.Template.mask lsr 8) land 0xff) ((f.Template.value lsr 8) land 0xff);
      add (f.Template.offset + 1) (f.Template.mask land 0xff) (f.Template.value land 0xff))
    (Template.fields tpl);
  match !conflict with Some off -> Error off | None -> Ok tbl

(* Our Ethernet encapsulation: the receive filter pins the endpoint's
   local IP at bytes 30..33 (IP destination); an honest send template
   must pin the IP source (bytes 26..29) to the same address, or the
   owner could impersonate other local endpoints on output. *)
let off_filter_dst_ip = 30
let off_template_src_ip = 26

let check_template_pins ~pinned tpl =
  match template_bytes tpl with
  | Error offset -> Error (Template_inconsistent { offset })
  | Ok bytes ->
      let local_ip_byte i = pinned (off_filter_dst_ip + i) in
      let rec check i =
        if i = 4 then Ok ()
        else
          match local_ip_byte i with
          | None -> Ok () (* filter does not pin the full local address *)
          | Some v -> (
              match Hashtbl.find_opt bytes (off_template_src_ip + i) with
              | Some (0xff, v') when v' = v -> check (i + 1)
              | _ -> Error (Impersonation_hole { offset = off_template_src_ip + i }))
      in
      if List.for_all (fun i -> local_ip_byte i <> None) [ 0; 1; 2; 3 ] then check 0 else Ok ()

let check_template ~filter:(r : Absint.result) tpl =
  match r.Absint.r_accept_paths with
  | [ ap ] when r.Absint.r_conjunctive ->
      check_template_pins ~pinned:(fun o -> List.assoc_opt o ap.Absint.ap_constraints) tpl
  | _ -> check_template_pins ~pinned:(fun _ -> None) tpl
