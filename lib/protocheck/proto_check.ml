module State = Uln_proto.Tcp_state
module Fsm = Uln_proto.Tcp_fsm
module Params = Uln_proto.Tcp_params
module Lock_order = Uln_engine.Lock_order

type finding = { f_check : string; f_ok : bool; f_detail : string }

let ok findings = List.for_all (fun f -> f.f_ok) findings

let pass check detail = { f_check = check; f_ok = true; f_detail = detail }
let fail check detail = { f_check = check; f_ok = false; f_detail = detail }

let print ppf findings =
  List.iter
    (fun f ->
      Format.fprintf ppf "  [%s] %-24s %s@."
        (if f.f_ok then "ok" else "FAIL")
        f.f_check f.f_detail)
    findings;
  let bad = List.filter (fun f -> not f.f_ok) findings in
  if bad = [] then Format.fprintf ppf "proto-check: %d checks passed@." (List.length findings)
  else Format.fprintf ppf "proto-check: %d of %d checks FAILED@." (List.length bad) (List.length findings)

(* --- FSM exhaustiveness and runtime conformance ----------------------- *)

let pair_name s ev = Printf.sprintf "(%s, %s)" (State.to_string s) (Fsm.event_name ev)

(* [seed_unhandled] simulates the lint's target defect — a (state,
   event) pair someone forgot to either handle or explicitly ignore —
   by hiding one declared-ignored pair from the tiling check. *)
let check_fsm ?(seed_unhandled = false) () =
  let out = ref [] in
  let add f = out := f :: !out in
  let hidden =
    if not seed_unhandled then None
    else
      match Fsm.ignored State.Established with
      | (ev, _) :: _ -> Some (State.Established, ev)
      | [] -> None
  in
  let is_hidden s ev = hidden = Some (s, ev) in
  let edges_at s ev =
    List.filter (fun e -> e.Fsm.e_from = s && e.Fsm.e_event = ev) Fsm.edges
  in
  let ignored_at s ev =
    List.filter (fun (ev', _) -> ev' = ev && not (is_hidden s ev)) (Fsm.ignored s)
  in
  (* 1. Every (state, event) pair is exactly one of: a declared
     transition, or an explicitly ignored pair with a reason. *)
  let holes = ref [] and overlaps = ref [] and dups = ref [] in
  List.iter
    (fun s ->
      List.iter
        (fun ev ->
          let ne = List.length (edges_at s ev) and ni = List.length (ignored_at s ev) in
          if ne = 0 && ni = 0 then holes := pair_name s ev :: !holes;
          if ne > 0 && ni > 0 then overlaps := pair_name s ev :: !overlaps;
          if ne > 1 || ni > 1 then dups := pair_name s ev :: !dups)
        Fsm.all_events)
    Fsm.all_states;
  let listing what l = Printf.sprintf "%s: %s" what (String.concat ", " (List.rev l)) in
  (match !holes with
  | [] ->
      add
        (pass "fsm-exhaustive"
           (Printf.sprintf "%d states x %d events all handled or ignored-with-reason"
              (List.length Fsm.all_states) (List.length Fsm.all_events)))
  | l -> add (fail "fsm-exhaustive" (listing "unhandled and unignored" l)));
  if !overlaps <> [] then
    add (fail "fsm-exhaustive" (listing "both handled and ignored" !overlaps));
  if !dups <> [] then add (fail "fsm-exhaustive" (listing "duplicate entries" !dups));
  (* 2. Every state is reachable from Closed through declared edges. *)
  let reached = Hashtbl.create 16 in
  let rec walk s =
    if not (Hashtbl.mem reached s) then begin
      Hashtbl.add reached s ();
      List.iter (fun e -> if e.Fsm.e_from = s then walk e.Fsm.e_to) Fsm.edges
    end
  in
  walk State.Closed;
  (match List.filter (fun s -> not (Hashtbl.mem reached s)) Fsm.all_states with
  | [] -> add (pass "fsm-reachable" "every state reachable from CLOSED")
  | l ->
      add
        (fail "fsm-reachable"
           (listing "unreachable" (List.map State.to_string l))));
  (* 3. The runtime dispatch agrees with the declared relation on every
     pair of the grid: the relation-as-data cannot rot away from the
     code the engine actually runs. *)
  let diverged = ref [] in
  List.iter
    (fun s ->
      List.iter
        (fun ev ->
          let got = Fsm.Packed.apply_event (Fsm.Packed.at s) ev in
          match (edges_at s ev, got) with
          | [ e ], Ok w when Fsm.Packed.state w = e.Fsm.e_to -> ()
          | [ _ ], _ ->
              diverged := (pair_name s ev ^ " (edge not taken by dispatch)") :: !diverged
          | [], Error (`Ignored _) -> ()
          | [], _ -> diverged := (pair_name s ev ^ " (dispatch diverges)") :: !diverged
          | _ :: _ :: _, _ -> () (* already reported as duplicate *))
        Fsm.all_events)
    Fsm.all_states;
  (match !diverged with
  | [] -> add (pass "fsm-dispatch" "runtime dispatch = declared relation on the full grid")
  | l -> add (fail "fsm-dispatch" (listing "divergent" l)));
  (* 4. The typed permit rows mirror the runtime predicates. *)
  let mirror name declared predicate =
    let from_pred = List.filter predicate State.all in
    if declared = from_pred then
      add (pass "fsm-permits" (name ^ " matches Tcp_state predicate"))
    else
      add
        (fail "fsm-permits"
           (Printf.sprintf "%s = {%s} but predicate gives {%s}" name
              (String.concat " " (List.map State.to_string declared))
              (String.concat " " (List.map State.to_string from_pred))))
  in
  mirror "send_states" Fsm.send_states State.can_send_data;
  mirror "recv_states" Fsm.recv_states State.can_receive_data;
  mirror "bqi_states" Fsm.bqi_states (fun s ->
      (not (State.synchronized s)) && s <> State.Closed);
  mirror "opt_states" Fsm.opt_states (fun s ->
      (not (State.synchronized s)) && s <> State.Closed);
  List.rev !out

(* --- declared lock hierarchy ------------------------------------------ *)

(* [seed_cycle] appends a deliberately inverted nesting, the ABBA shape
   the check exists to reject. *)
let check_locks ?(seed_cycle = false) () =
  let out = ref [] in
  let add f = out := f :: !out in
  let edges =
    Lock_order.declared_edges @ if seed_cycle then [ ("*.rx_sem", "*.bkl") ] else []
  in
  let rank p =
    List.find_opt (fun e -> e.Lock_order.re_pattern = p) Lock_order.hierarchy
    |> Option.map (fun e -> e.Lock_order.re_rank)
  in
  let unranked =
    List.concat_map (fun (a, b) -> [ a; b ]) edges
    |> List.filter (fun p -> rank p = None)
    |> List.sort_uniq compare
  in
  (match unranked with
  | [] -> add (pass "lock-ranks" "every declared edge endpoint has a rank")
  | l -> add (fail "lock-ranks" ("unranked patterns: " ^ String.concat ", " l)));
  let uphill =
    List.filter
      (fun (a, b) ->
        match (rank a, rank b) with Some ra, Some rb -> ra >= rb | _ -> false)
      edges
  in
  (match uphill with
  | [] -> add (pass "lock-monotone" "every declared nesting goes strictly downhill")
  | l ->
      add
        (fail "lock-monotone"
           ("rank-inverted edges: "
           ^ String.concat ", " (List.map (fun (a, b) -> a ^ " -> " ^ b) l))));
  (* Cycle detection over the pattern graph. *)
  let nodes =
    List.sort_uniq compare (List.concat_map (fun (a, b) -> [ a; b ]) edges)
  in
  let color = Hashtbl.create 8 in
  let cycle = ref None in
  let rec visit n =
    match Hashtbl.find_opt color n with
    | Some `Done -> ()
    | Some `Active -> if !cycle = None then cycle := Some n
    | None ->
        Hashtbl.replace color n `Active;
        List.iter (fun (a, b) -> if a = n then visit b) edges;
        Hashtbl.replace color n `Done
  in
  List.iter visit nodes;
  (match !cycle with
  | None -> add (pass "lock-acyclic" "acquisition graph has no cycle")
  | Some n -> add (fail "lock-acyclic" ("cycle through " ^ n)));
  List.rev !out

(* --- switch-coverage lint --------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  nn = 0
  ||
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* The fields of Tcp_params.t, read from its source.  Every [bool]
   field and every polymorphic-variant field is {e ablatable} — it must
   register an oracle or a policy exemption.  Other fields (the ints
   and spans) are tunables that {e may} register an oracle when they
   gate behaviour worth pinning (e.g. [ack_every]).  Reading the source
   (rather than introspecting the value) is the point — a newly added
   switch fails the lint until it registers. *)
let record_fields params_src =
  let src = read_file params_src in
  let start =
    match String.index_opt src '{' with
    | Some i -> i
    | None -> failwith (params_src ^ ": no record type found")
  in
  let stop =
    match String.index_from_opt src start '}' with
    | Some i -> i
    | None -> failwith (params_src ^ ": unterminated record type")
  in
  let block = String.sub src start (stop - start) in
  String.split_on_char '\n' block
  |> List.filter_map (fun line ->
         match String.index_opt line ':' with
         | None -> None
         | Some i ->
             let name = String.trim (String.sub line 0 i) in
             let ty = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
             let is_ident =
               name <> ""
               && String.for_all (fun c -> c = '_' || (c >= 'a' && c <= 'z')) name
             in
             if is_ident then
               Some (name, ty = "bool;" || (ty <> "" && ty.[0] = '['))
             else None)

let ablatable_fields params_src =
  List.filter_map (fun (n, abl) -> if abl then Some n else None) (record_fields params_src)

let check_switches ~params_src ~spec_names ~root () =
  let out = ref [] in
  let add f = out := f :: !out in
  let fields = ablatable_fields params_src in
  let all_fields = List.map fst (record_fields params_src) in
  let table_file = Filename.concat root "BENCH_switches.json" in
  let table = if Sys.file_exists table_file then read_file table_file else "" in
  let registered f = List.exists (fun s -> s.Params.sw_field = f) Params.switches in
  let policy f = List.mem_assoc f Params.policy_fields in
  (match List.filter (fun f -> (not (registered f)) && not (policy f)) fields with
  | [] ->
      add
        (pass "switch-registry"
           (Printf.sprintf "%d ablatable fields all registered (%d policy-exempt)"
              (List.length fields)
              (List.length (List.filter policy fields))))
  | l ->
      add
        (fail "switch-registry"
           ("switch fields with no oracle/bench registration: " ^ String.concat ", " l)));
  (match
     List.filter (fun s -> not (List.mem s.Params.sw_field all_fields)) Params.switches
   with
  | [] -> ()
  | l ->
      add
        (fail "switch-registry"
           ("registry entries for nonexistent fields: "
           ^ String.concat ", " (List.map (fun s -> s.Params.sw_field) l))));
  List.iter
    (fun s ->
      (match String.index_opt s.Params.sw_oracle ':' with
      | None ->
          add
            (fail "switch-oracle"
               (s.Params.sw_field ^ ": oracle is not of the form file:ident"))
      | Some i ->
          let file = String.sub s.Params.sw_oracle 0 i in
          let ident =
            String.sub s.Params.sw_oracle (i + 1) (String.length s.Params.sw_oracle - i - 1)
          in
          let path = Filename.concat root file in
          if not (Sys.file_exists path) then
            add (fail "switch-oracle" (s.Params.sw_field ^ ": no such file " ^ file))
          else if not (contains (read_file path) ident) then
            add
              (fail "switch-oracle"
                 (Printf.sprintf "%s: %s does not define %s" s.Params.sw_field file ident))
          else add (pass "switch-oracle" (s.Params.sw_field ^ " -> " ^ s.Params.sw_oracle)));
      if contains table (Printf.sprintf "\"field\": \"%s\"" s.Params.sw_field) then
        add (pass "switch-table" (s.Params.sw_field ^ " has a leave-one-out row"))
      else
        add
          (fail "switch-table"
             (Printf.sprintf "%s: no leave-one-out row in %s" s.Params.sw_field table_file));
      if List.mem s.Params.sw_bench_row spec_names then
        add
          (pass "switch-bench"
             (Printf.sprintf "%s -> spec %S" s.Params.sw_field s.Params.sw_bench_row))
      else
        add
          (fail "switch-bench"
             (Printf.sprintf "%s: no bench spec named %S" s.Params.sw_field
                s.Params.sw_bench_row)))
    Params.switches;
  List.rev !out

(* --- dead-export lint ----------------------------------------------------- *)

(* Exported vals kept without a caller outside their module, each with
   its reason. *)
let dead_export_allow = []

(* The trees a caller may live in: the benchmark's included, so nothing
   it uses can be deleted. *)
let source_trees = [ "lib"; "bin"; "bench"; "test"; "examples"; "perfbench" ]

let rec sources_under dir acc =
  Array.fold_left
    (fun acc name ->
      let path = Filename.concat dir name in
      if name.[0] = '_' || name.[0] = '.' then acc
      else if Sys.is_directory path then sources_under path acc
      else if Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli" then
        path :: acc
      else acc)
    acc
    (try Sys.readdir dir with Sys_error _ -> [||])

(* The identifiers of a source, comments and string literals skipped. *)
let words src =
  let n = String.length src in
  let is_id c =
    c = '_' || c = '\'' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  in
  let out = Hashtbl.create 256 in
  let rec skip_comment i depth =
    if i + 1 >= n then n
    else if src.[i] = '(' && src.[i + 1] = '*' then skip_comment (i + 2) (depth + 1)
    else if src.[i] = '*' && src.[i + 1] = ')' then
      if depth = 1 then i + 2 else skip_comment (i + 2) (depth - 1)
    else skip_comment (i + 1) depth
  in
  let rec skip_string i =
    if i >= n then n
    else if src.[i] = '\\' then skip_string (i + 2)
    else if src.[i] = '"' then i + 1
    else skip_string (i + 1)
  in
  let rec ident i = if i < n && is_id src.[i] then ident (i + 1) else i in
  let rec go i =
    if i < n then
      if src.[i] = '(' && i + 1 < n && src.[i + 1] = '*' then go (skip_comment (i + 2) 1)
      else if src.[i] = '"' then go (skip_string (i + 1))
      else if src.[i] = '\'' && i + 2 < n && src.[i + 2] = '\'' then go (i + 3)
      else if is_id src.[i] then begin
        let j = ident i in
        Hashtbl.replace out (String.sub src i (j - i)) ();
        go j
      end
      else go (i + 1)
  in
  go 0;
  out

(* The [val]s an interface exports. *)
let exported_vals src =
  String.split_on_char '\n' src
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | "val" :: v :: _ when v <> "" && v.[0] >= 'a' && v.[0] <= 'z' -> Some v
         | _ -> None)

let module_of path = String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

(* An exported val must be named, as a whole word, somewhere outside its
   own module — or carry an allowlist reason. *)
let check_dead_exports ?(allow = dead_export_allow) ~root () =
  let files = List.concat_map (fun d -> sources_under (Filename.concat root d) []) source_trees in
  let words_of = List.map (fun f -> (module_of f, words (read_file f))) files in
  let lib = Filename.concat root "lib" in
  let interfaces =
    List.sort compare
      (List.filter (fun f -> Filename.check_suffix f ".mli" && String.starts_with ~prefix:lib f) files)
  in
  let dead =
    List.concat_map
      (fun mli ->
        let m = module_of mli in
        List.filter_map
          (fun v ->
            let name = m ^ "." ^ v in
            if List.mem_assoc name allow
               || List.exists (fun (m', w) -> m' <> m && Hashtbl.mem w v) words_of
            then None
            else Some name)
          (exported_vals (read_file mli)))
      interfaces
  in
  match dead with
  | [] ->
      [ pass "dead-export"
          (Printf.sprintf "every val of %d interfaces is named outside its module (%d allowed)"
             (List.length interfaces) (List.length allow)) ]
  | l -> List.map (fun name -> fail "dead-export" (name ^ ": not named outside its module")) l

let run ?(seed_unhandled = false) ?(seed_cycle = false) ?sources () =
  check_fsm ~seed_unhandled ()
  @ check_locks ~seed_cycle ()
  @
  match sources with
  | None -> []
  | Some (params_src, spec_names, root) ->
      check_switches ~params_src ~spec_names ~root () @ check_dead_exports ~root ()
