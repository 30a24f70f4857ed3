type mode = Interpreted | Compiled

(* Monomorphic tables: no polymorphic hash or compare per probe.  Entry
   ids are sequential, so an id is its own hash. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash (i : int) = i
end)

module Stbl = Hashtbl.Make (String)

(* An exactness proof: the entry accepts exactly the packets of length
   >= [x_min_len] whose bytes at [x_offs] spell [x_key].  [x_offs] is
   strictly increasing (an analysis pins each offset once) and is the
   very array of the entry's hierarchical shape, shared by every entry
   of that shape.  [x_key] is both the shape's bucket key and the
   flow-cache key. *)
type exact = { x_offs : int array; x_key : string; x_min_len : int }

(* A verified program that stamps are made from.  Its optimized program
   is a chain of load-vs-literal equality tests; every literal is a
   hole, read from the stamp's bytes at the offsets its load reads, so
   a stamp runs the shape's program with its own bytes in place of the
   shape's ([sh_run], built once). *)
type shape = {
  sh_offs : int array;  (* the pinned offsets, strictly increasing *)
  sh_pos : int array;  (* offset -> its index in [sh_offs], or -1 *)
  sh_bytes : string;  (* the shape program's own bytes at [sh_offs] *)
  sh_min_len : int;  (* one past the last pinned offset *)
  sh_run : string -> Uln_buf.View.t -> bool * int;
  sh_wcet : int;
  sh_report : Verify.report;
  sh_stamp : run;  (* [Stamp] of this shape, shared by its stamps *)
}

(* How an entry decides a packet: an installed program runs its
   optimized form; a stamp runs its shape's program bound to its proof's
   key. *)
and run = Filter of filter | Stamp of shape

(* An installed program: the overlap check's unit of work.  Its analysis
   is computed at most once: given by the installer, or forced by the
   first overlap check that needs it. *)
and filter = {
  f_id : int;  (* its entry's id *)
  f_program : Program.t;  (* as installed (overlap checks use this) *)
  f_analysis : Absint.result Lazy.t;
  f_optimized : Program.t;  (* what runs, and what a shape is made of *)
  f_pred : Uln_buf.View.t -> bool * int;
  f_wcet : int;  (* certified worst case of the optimized program *)
  f_report : Verify.report;
  mutable f_slot : slot;  (* where the overlap index holds it *)
  mutable f_shapes : (int list * shape) list;
      (* shapes {!install_stamped} made of its tests, by the tests kept *)
}

(* The overlap index.  A filter whose analysis has one accept path with
   strictly increasing constraint offsets sits in the bucket of the
   [oshape] for that offset set, keyed by the bytes it pins there.  Its
   constraint merge with an incoming accept path that pins every offset
   of the shape can only succeed when the path pins the same bytes, so
   such a path needs that one bucket; a path leaving some offset
   unpinned needs the whole shape.  Every other filter is [Residual] and
   always checked.  [Unindexed] filters (analysis not forced yet) are
   placed at the next check. *)
and slot = Unindexed | Residual | Bucket of oshape * string

and oshape = {
  os_offs : int array;  (* strictly increasing byte offsets *)
  os_buckets : filter list Stbl.t;
}

type shape_error = Not_admitted of Verify.error | Not_stampable

type stamp_error =
  | Not_a_byte of { offset : int; value : int }
  | Unpinned of { offset : int }
  | Conflicting of { offset : int }
  | Impersonation of Verify.template_error

let pp_stamp_error ppf = function
  | Not_a_byte { offset; value } ->
      Format.fprintf ppf "binding %d=%d is not an (offset, byte) pair" offset value
  | Unpinned { offset } -> Format.fprintf ppf "binds byte %d, which the shape does not pin" offset
  | Conflicting { offset } -> Format.fprintf ppf "binds byte %d to two values" offset
  | Impersonation te -> Verify.pp_template_error ppf te

type key = int

type 'a entry = {
  id : int;
  run : run;
  exact : exact option;
      (* present when the optimized program is conjunctive-exact (always,
         for a stamp): the flow cache's key material — and the
         hierarchical index's partition criterion. *)
  endpoint : 'a;
  mutable affinity : int;
      (* Receive flow steering: the CPU index this endpoint's traffic
         should be processed on.  Mutable so a re-install (affinity
         change mid-connection) updates every view of the entry,
         including any cached flow, atomically. *)
  mutable dead : bool;
      (* Removal tombstone: the priority-ordered [entries] list is
         compacted lazily (amortized O(1) remove); a dead entry is
         skipped at zero cost everywhere it could still be seen. *)
}

type 'a conflict = { against : key; with_endpoint : 'a; witness : Uln_buf.View.t }

(* One flow-cache shape per distinct constrained-offset set: a hash
   table keyed by the packet bytes at those offsets.  Shapes are probed
   in creation order; the soundness rule at cache-install time
   guarantees at most one cached entry can match any packet, so probe
   order cannot change the dispatch outcome. *)
type 'a cached = { c_entry : 'a entry; c_min_len : int }

type 'a cshape = {
  s_offs : int array;  (* sorted byte offsets *)
  s_max : int;  (* highest offset (length guard) *)
  s_tbl : 'a cached Stbl.t;
}

(* The hierarchical index groups every conjunctive-exact entry by its
   constrained-offset set ("shape") and hashes the constraint bytes to a
   bucket of entries; entries whose programs have no exactness proof go
   to the [residual] list and keep the linear-scan treatment.  Unlike a
   flow-cache shape a bucket holds a *list* (several filters may pin the
   same bytes, e.g. a listener and the connections under it), so no
   shadow-safety proof is needed: dispatch considers every candidate and
   picks the highest id, exactly what the priority scan would return.
   A stamp's bucket is also its identity for the overlap check. *)
type 'a hshape = {
  hs_offs : int array;  (* sorted byte offsets *)
  hs_max : int;  (* highest offset (length guard) *)
  hs_tbl : 'a entry list ref Stbl.t;
  mutable hs_stamps : int;  (* live stamps in [hs_tbl] *)
}

type cache_stats = { hits : int; misses : int; installs : int; skips : int; flushes : int }

type 'a t = {
  mode : mode;
  budget : int option;
  mutable entries : 'a entry list;
  by_id : 'a entry Itbl.t;
  mutable n_entries : int;  (* live (non-dead) entries *)
  mutable n_dead : int;  (* tombstones awaiting compaction *)
  mutable next_id : int;
  mutable flow_cache : bool;
  mutable hier : bool;
  mutable cshapes : 'a cshape list;
  mutable hshapes : 'a hshape list;
  mutable residual : 'a entry list;  (* inexact entries, priority order *)
  mutable n_filters : int;  (* live installed programs *)
  mutable oshapes : oshape list;
  oresidual : filter Itbl.t;  (* by [f_id] *)
  unindexed : filter Itbl.t;  (* by [f_id] *)
  mutable c_hits : int;
  mutable c_misses : int;
  mutable c_installs : int;
  mutable c_skips : int;
  mutable c_flushes : int;
}

let create ~mode ?budget ?(flow_cache = false) ?(hier = false) () =
  { mode;
    budget;
    entries = [];
    by_id = Itbl.create 64;
    n_entries = 0;
    n_dead = 0;
    next_id = 0;
    flow_cache;
    hier;
    cshapes = [];
    hshapes = [];
    residual = [];
    n_filters = 0;
    oshapes = [];
    oresidual = Itbl.create 8;
    unindexed = Itbl.create 8;
    c_hits = 0;
    c_misses = 0;
    c_installs = 0;
    c_skips = 0;
    c_flushes = 0 }

let mode t = t.mode
let budget t = t.budget

let cache_stats t =
  { hits = t.c_hits;
    misses = t.c_misses;
    installs = t.c_installs;
    skips = t.c_skips;
    flushes = t.c_flushes }

(* Any table mutation invalidates every cached flow: priorities may have
   changed (a newly installed filter shadows older ones), so the
   install-time safety proofs no longer hold. *)
let flush_cache t =
  if t.cshapes <> [] then begin
    t.cshapes <- [];
    t.c_flushes <- t.c_flushes + 1
  end

let set_flow_cache t on =
  if t.flow_cache <> on then begin
    flush_cache t;
    t.flow_cache <- on
  end

(* The hierarchical index is maintained whether or not it is consulted,
   so the switch only selects the dispatch path: no flush, and the
   differential tests can flip it between lookups on the same table. *)
let set_hier t on = t.hier <- on

let live_groups t = t.n_filters

(* Shape offset sets are compared without polymorphic [=]; an entry's
   offsets are usually its shape's own array, so [==] settles it. *)
let same_offs (a : int array) b =
  a == b
  ||
  let n = Array.length a in
  n = Array.length b
  &&
  let rec go i = i = n || (a.(i) = b.(i) && go (i + 1)) in
  go 0

(* The index of offset [o] in the strictly increasing [offs], or -1. *)
let index_of (offs : int array) o =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) / 2 in
      let m = offs.(mid) in
      if m = o then mid else if m < o then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length offs)

(* --- the overlap index --------------------------------------------------- *)

let rec strictly_increasing = function
  | (o1, _) :: ((o2, _) :: _ as rest) -> o1 < o2 && strictly_increasing rest
  | _ -> true

let index_filter t f =
  match (Lazy.force f.f_analysis).Absint.r_accept_paths with
  | [ ap ] when strictly_increasing ap.Absint.ap_constraints ->
      let cs = ap.Absint.ap_constraints in
      let offs = Array.of_list (List.map fst cs) in
      let key = String.of_seq (Seq.map (fun (_, v) -> Char.chr v) (List.to_seq cs)) in
      let sh =
        match List.find_opt (fun sh -> same_offs sh.os_offs offs) t.oshapes with
        | Some sh -> sh
        | None ->
            let sh = { os_offs = offs; os_buckets = Stbl.create 16 } in
            t.oshapes <- sh :: t.oshapes;
            sh
      in
      let bucket = Option.value ~default:[] (Stbl.find_opt sh.os_buckets key) in
      Stbl.replace sh.os_buckets key (f :: bucket);
      f.f_slot <- Bucket (sh, key)
  | _ ->
      Itbl.replace t.oresidual f.f_id f;
      f.f_slot <- Residual

let unindex_filter t f =
  match f.f_slot with
  | Unindexed -> Itbl.remove t.unindexed f.f_id
  | Residual -> Itbl.remove t.oresidual f.f_id
  | Bucket (sh, key) -> (
      match List.filter (fun f' -> f' != f) (Stbl.find sh.os_buckets key) with
      | [] ->
          Stbl.remove sh.os_buckets key;
          if Stbl.length sh.os_buckets = 0 then
            t.oshapes <- List.filter (fun sh' -> sh' != sh) t.oshapes
      | rest -> Stbl.replace sh.os_buckets key rest)

let index_unindexed t =
  if Itbl.length t.unindexed > 0 then begin
    Itbl.iter (fun _ f -> index_filter t f) t.unindexed;
    Itbl.reset t.unindexed
  end

(* The bytes an accept path's (offset-sorted) constraints pin at the
   shape's offsets, or [None] when it leaves one of them unpinned. *)
let path_key offs cs =
  let n = Array.length offs in
  let key = Bytes.create n in
  let rec go i cs =
    if i = n then Some (Bytes.unsafe_to_string key)
    else
      match cs with
      | [] -> None
      | (o, v) :: rest ->
          if o < offs.(i) then go i rest
          else if o > offs.(i) then None
          else begin
            Bytes.set key i (Char.chr v);
            go (i + 1) rest
          end
  in
  go 0 cs

(* The buckets of [sh] the incoming accept paths select: [Some keys],
   distinct, or [None] for the whole shape. *)
let shape_keys sh paths =
  let rec go acc = function
    | [] -> Some (List.sort_uniq String.compare acc)
    | ap :: rest -> (
        match path_key sh.os_offs ap.Absint.ap_constraints with
        | Some k -> go (k :: acc) rest
        | None -> None)
  in
  go [] paths

let pins_of x = List.init (Array.length x.x_offs) (fun i -> (x.x_offs.(i), Char.code x.x_key.[i]))

(* The stamps of one hierarchical shape that can conflict with the
   incoming program, each checked once against its own bytes.  A
   conjunctive program whose pins all fall on the shape's offsets, and
   which needs no longer packet than the shape, either contradicts a
   stamp's bytes (disjoint) or subsumes the stamp (benign): no stamp
   can conflict.  A path that pins every offset of the shape selects one
   bucket; any other path walks the buckets whose bytes agree with its
   pins there. *)
let stamp_conflicts hs (program, a) add =
  let offs = hs.hs_offs in
  let on_shape (o, _) = index_of offs o >= 0 in
  let disjoint_or_subsuming =
    a.Absint.r_conjunctive
    &&
    match a.Absint.r_accept_paths with
    | [ ap ] -> ap.Absint.ap_min_len <= hs.hs_max + 1 && List.for_all on_shape ap.Absint.ap_constraints
    | _ -> false
  in
  if not disjoint_or_subsuming then begin
    let seen = Itbl.create 8 in
    let check e =
      match (e.run, e.exact) with
      | Stamp _, Some x when (not e.dead) && not (Itbl.mem seen e.id) -> (
          Itbl.add seen e.id ();
          match Verify.conflict_exact (program, a) ~constraints:(pins_of x) ~min_len:x.x_min_len with
          | Some w -> add e.id w
          | None -> ())
      | _ -> ()
    in
    List.iter
      (fun ap ->
        let cs = ap.Absint.ap_constraints in
        match path_key offs cs with
        | Some k -> (
            match Stbl.find_opt hs.hs_tbl k with Some b -> List.iter check !b | None -> ())
        | None ->
            let pins =
              List.filter_map
                (fun (o, v) ->
                  let i = index_of offs o in
                  if i >= 0 then Some (i, v) else None)
                cs
            in
            Stbl.iter
              (fun k b ->
                if List.for_all (fun (i, v) -> Char.code (String.unsafe_get k i) = v) pins then
                  List.iter check !b)
              hs.hs_tbl)
      a.Absint.r_accept_paths
  end

(* One verdict per candidate, never per live entry: the index narrows
   the installed programs to those whose constraints can merge with the
   incoming program's, and a stamp is visited only through its bucket.
   The hits are reported in priority order (newest first). *)
let conflicts t (program, a) =
  let hits = ref [] in
  let add id w = hits := (id, w) :: !hits in
  if t.n_filters > 0 then begin
    index_unindexed t;
    let check f =
      match Verify.conflict_analyzed (program, a) (f.f_program, Lazy.force f.f_analysis) with
      | Some w -> add f.f_id w
      | None -> ()
    in
    Itbl.iter (fun _ f -> check f) t.oresidual;
    List.iter
      (fun sh ->
        match shape_keys sh a.Absint.r_accept_paths with
        | Some keys ->
            List.iter
              (fun k ->
                match Stbl.find_opt sh.os_buckets k with
                | Some fs -> List.iter check fs
                | None -> ())
              keys
        | None -> Stbl.iter (fun _ fs -> List.iter check fs) sh.os_buckets)
      t.oshapes
  end;
  List.iter (fun hs -> if hs.hs_stamps > 0 then stamp_conflicts hs (program, a) add) t.hshapes;
  List.sort (fun (i, _) (j, _) -> Int.compare j i) !hits
  |> List.map (fun (id, witness) ->
         { against = id; with_endpoint = (Itbl.find t.by_id id).endpoint; witness })

(* --- the hierarchical index -------------------------------------------- *)

let find_hshape t offs = List.find_opt (fun sh -> same_offs sh.hs_offs offs) t.hshapes

(* The exactness proof of an analysis's one accept path, whose
   constraints are sorted with one pin per offset.  The offsets array
   is the existing shape's when there is one. *)
let exact_of t (a : Absint.result) =
  match a.Absint.r_accept_paths with
  | [ ap ] when a.Absint.r_conjunctive && ap.Absint.ap_exact && ap.Absint.ap_at = None ->
      let cs = ap.Absint.ap_constraints in
      let offs = Array.of_list (List.map fst cs) in
      Some
        { x_offs = (match find_hshape t offs with Some sh -> sh.hs_offs | None -> offs);
          x_key = String.of_seq (Seq.map (fun (_, v) -> Char.chr v) (List.to_seq cs));
          x_min_len = ap.Absint.ap_min_len }
  | _ -> None

let is_stamp e = match e.run with Stamp _ -> true | Filter _ -> false

let hindex_add t (e : 'a entry) =
  match e.exact with
  | Some x when Array.length x.x_offs > 0 ->
      let sh =
        match find_hshape t x.x_offs with
        | Some sh -> sh
        | None ->
            let sh =
              { hs_offs = x.x_offs;
                hs_max = x.x_offs.(Array.length x.x_offs - 1);
                hs_tbl = Stbl.create 256;
                hs_stamps = 0 }
            in
            t.hshapes <- t.hshapes @ [ sh ];
            sh
      in
      if is_stamp e then sh.hs_stamps <- sh.hs_stamps + 1;
      (match Stbl.find_opt sh.hs_tbl x.x_key with
      | Some bucket -> bucket := e :: !bucket
      | None -> Stbl.add sh.hs_tbl x.x_key (ref [ e ]))
  | _ -> t.residual <- e :: t.residual

let hindex_remove t (e : 'a entry) =
  match e.exact with
  | Some x when Array.length x.x_offs > 0 -> (
      match find_hshape t x.x_offs with
      | None -> ()
      | Some sh -> (
          if is_stamp e then sh.hs_stamps <- sh.hs_stamps - 1;
          match Stbl.find_opt sh.hs_tbl x.x_key with
          | None -> ()
          | Some bucket -> (
              match List.filter (fun g -> g.id <> e.id) !bucket with
              | [] -> Stbl.remove sh.hs_tbl x.x_key
              | rest -> bucket := rest)))
  | _ -> t.residual <- List.filter (fun g -> g.id <> e.id) t.residual

(* --- install / remove --------------------------------------------------- *)

let add_entry t entry =
  t.entries <- entry :: t.entries;
  Itbl.add t.by_id entry.id entry;
  t.n_entries <- t.n_entries + 1;
  hindex_add t entry;
  flush_cache t

let wcet_of t report =
  match t.mode with
  | Interpreted -> report.Verify.wcet_interp
  | Compiled -> report.Verify.wcet_compiled

(* [raw] is the analysis of [program] as given; it becomes the filter's,
   unless [program] runs as is and the optimized analysis already is. *)
let admit_and_add ~optimize ~affinity t program raw endpoint =
  let optimized = if optimize then Optimize.run program else program in
  let a = Absint.analyze optimized in
  match Verify.admit_analyzed ?budget:t.budget ~compiled:(t.mode = Compiled) a with
  | Error e -> Error e
  | Ok report ->
      t.next_id <- t.next_id + 1;
      let f =
        { f_id = t.next_id;
          f_program = program;
          f_analysis = (if program == optimized then Lazy.from_val a else raw);
          f_optimized = optimized;
          f_pred =
            (match t.mode with
            | Interpreted -> Interp.run_counted optimized
            | Compiled -> Compile.compile_counted optimized);
          f_wcet = wcet_of t report;
          f_report = report;
          f_slot = Unindexed;
          f_shapes = [] }
      in
      t.n_filters <- t.n_filters + 1;
      if Lazy.is_val f.f_analysis then index_filter t f else Itbl.replace t.unindexed f.f_id f;
      add_entry t
        { id = f.f_id; run = Filter f; exact = exact_of t a; endpoint; affinity; dead = false };
      Ok f.f_id

let install ?(optimize = true) ?(affinity = 0) t program endpoint =
  admit_and_add ~optimize ~affinity t program (lazy (Absint.analyze program)) endpoint

let install_analyzed ?(affinity = 0) t (program, a) endpoint =
  admit_and_add ~optimize:true ~affinity t program (Lazy.from_val a) endpoint

let install_exn ?optimize ?affinity t program endpoint =
  match install ?optimize ?affinity t program endpoint with
  | Ok k -> k
  | Error e -> raise (Verify.Rejected e)

(* --- shapes and stamps --------------------------------------------------- *)

let load_of = function
  | Insn.Push_word o -> Some (o, 2)
  | Insn.Push_byte o -> Some (o, 1)
  | _ -> None

(* The tests of a pure test chain — [T; Cand; ...; T; Cand; Push_lit k]
   (k <> 0) or the same ending in a bare [T], where [T] compares a load
   with a literal by [Eq] in either order — as (literal's instruction
   index, load offset, load width); [None] for any other program. *)
let chain_tests insns =
  let rec go i acc = function
    | [ Insn.Push_lit k ] when k <> 0 -> Some (List.rev acc)
    | a :: b :: Insn.Eq :: rest -> (
        let test =
          match (a, b) with
          | Insn.Push_lit _, l -> Option.map (fun (o, w) -> (i, o, w)) (load_of l)
          | l, Insn.Push_lit _ -> Option.map (fun (o, w) -> (i + 1, o, w)) (load_of l)
          | _ -> None
        in
        match (test, rest) with
        | Some h, [] -> Some (List.rev (h :: acc))
        | Some h, Insn.Cand :: rest -> go (i + 4) (h :: acc) rest
        | _ -> None)
    | _ -> None
  in
  go 0 [] insns

(* The shape of an admitted optimized program with exactness proof [x].
   Exactness makes the pinned bytes those its tests read; a chain with a
   test whose bytes are not all pinned, or any other program, has no
   shape. *)
let shape_of mode program x ~wcet ~report =
  let n = Array.length x.x_offs in
  match chain_tests (Program.insns program) with
  | Some tests when n > 0 && x.x_min_len = x.x_offs.(n - 1) + 1 ->
      let pos = Array.make x.x_min_len (-1) in
      Array.iteri (fun i o -> pos.(o) <- i) x.x_offs;
      let pinned o = o < x.x_min_len && pos.(o) >= 0 in
      if List.for_all (fun (_, o, w) -> pinned o && (w = 1 || pinned (o + 1))) tests then begin
        let holes = Array.make (Program.length program) None in
        List.iter
          (fun (i, o, w) ->
            let a = pos.(o) in
            holes.(i) <-
              Some
                (if w = 1 then fun key -> Char.code (String.unsafe_get key a)
                 else
                   let b = pos.(o + 1) in
                   fun key ->
                     (Char.code (String.unsafe_get key a) lsl 8)
                     lor Char.code (String.unsafe_get key b)))
          tests;
        let hole i = holes.(i) in
        let run =
          match mode with
          | Interpreted -> Interp.run_bound program ~hole
          | Compiled -> Compile.compile_bound program ~hole
        in
        let rec sh =
          { sh_offs = x.x_offs;
            sh_pos = pos;
            sh_bytes = x.x_key;
            sh_min_len = x.x_min_len;
            sh_run = run;
            sh_wcet = wcet;
            sh_report = report;
            sh_stamp = Stamp sh }
        in
        Some sh
      end
      else None
  | _ -> None

(* Verification happens here, once per shape: optimization, analysis,
   admission and the exactness proof. *)
let shape t program =
  let optimized = Optimize.run program in
  let a = Absint.analyze optimized in
  match Verify.admit_analyzed ?budget:t.budget ~compiled:(t.mode = Compiled) a with
  | Error e -> Error (Not_admitted e)
  | Ok report -> (
      match exact_of t a with
      | None -> Error Not_stampable
      | Some x -> (
          match shape_of t.mode optimized x ~wcet:(wcet_of t report) ~report with
          | Some sh -> Ok sh
          | None -> Error Not_stampable))

(* The shape's bytes with [bindings] written over them. *)
let bind sh bindings =
  let key = Bytes.of_string sh.sh_bytes in
  let set = Bytes.make (Bytes.length key) '\000' in
  let rec go = function
    | [] -> Ok (Bytes.unsafe_to_string key)
    | (o, v) :: rest ->
        if o < 0 || v < 0 || v > 0xff then Error (Not_a_byte { offset = o; value = v })
        else if o >= Array.length sh.sh_pos || sh.sh_pos.(o) < 0 then Error (Unpinned { offset = o })
        else
          let i = sh.sh_pos.(o) in
          if Bytes.get set i <> '\000' && Char.code (Bytes.get key i) <> v then
            Error (Conflicting { offset = o })
          else begin
            Bytes.set key i (Char.chr v);
            Bytes.set set i '\001';
            go rest
          end
  in
  go bindings

(* A stamp runs no verifier pass: its shape's certificate covers it
   (same instructions, other literals), and its accept set is exactly its
   bytes.  [template], when given, is checked against the bytes the stamp
   pins as its local address. *)
let stamp_key ~affinity ?template t sh key endpoint =
  let pinned o =
    if o < Array.length sh.sh_pos && sh.sh_pos.(o) >= 0 then
      Some (Char.code (String.unsafe_get key sh.sh_pos.(o)))
    else None
  in
  match
    match template with None -> Ok () | Some tpl -> Verify.check_template_pins ~pinned tpl
  with
  | Error te -> Error (Impersonation te)
  | Ok () ->
      t.next_id <- t.next_id + 1;
      add_entry t
        { id = t.next_id;
          run = sh.sh_stamp;
          exact = Some { x_offs = sh.sh_offs; x_key = key; x_min_len = sh.sh_min_len };
          endpoint;
          affinity;
          dead = false };
      Ok t.next_id

let stamp ?(affinity = 0) ?template t sh bindings endpoint =
  match bind sh bindings with
  | Error e -> Error e
  | Ok key -> stamp_key ~affinity ?template t sh key endpoint

let stamp_bytes ?(affinity = 0) ?template t sh bytes endpoint =
  if String.length bytes <> Array.length sh.sh_offs then
    invalid_arg "Demux.stamp_bytes: not one byte per pinned offset"
  else stamp_key ~affinity ?template t sh bytes endpoint

(* The shape of the tests of [f]'s program that read a constrained
   byte, in program order and with the program's literals: verified once
   per set of tests kept, and kept with [f]. *)
let sub_shape t f constraints =
  let code = Array.of_list (Program.insns f.f_optimized) in
  match chain_tests (Array.to_list code) with
  | None -> Error "template is not a test chain"
  | Some tests -> (
      let constrained o = List.exists (fun (o', _) -> o' = o) constraints in
      let kept = List.filter (fun (_, o, w) -> constrained o || (w = 2 && constrained (o + 1))) tests in
      let ids = List.map (fun (i, _, _) -> i) kept in
      match List.assoc_opt ids f.f_shapes with
      | Some sh -> Ok sh
      | None -> (
          let test (i, o, w) =
            let lit = match code.(i) with Insn.Push_lit v -> v | _ -> assert false in
            [ (if w = 1 then Insn.Push_byte o else Insn.Push_word o); Insn.Push_lit lit; Insn.Eq; Insn.Cand ]
          in
          match shape t (Program.of_insns (List.concat_map test kept @ [ Insn.Push_lit 1 ])) with
          | Ok sh ->
              f.f_shapes <- (ids, sh) :: f.f_shapes;
              Ok sh
          | Error _ -> Error "its tests of the constrained bytes have no shape"))

(* A stamp of an installed program's tests that read the constrained
   bytes: what it pins is the constraints, plus the program's own bytes
   where a word test reads one constrained byte and one not. *)
let install_stamped ?(affinity = 0) t ~template ~constraints ~min_len endpoint =
  let source =
    match Itbl.find_opt t.by_id template with
    | None -> Error "unknown template"
    | Some { run = Stamp _; _ } -> Error "template is a stamp"
    | Some { run = Filter f; _ } -> sub_shape t f constraints
  in
  match source with
  | Error e -> Error ("install_stamped: " ^ e)
  | Ok sh when min_len < sh.sh_min_len ->
      Error
        (Printf.sprintf "install_stamped: min_len %d is below the shape's %d" min_len
           sh.sh_min_len)
  | Ok sh -> (
      match stamp ~affinity t sh constraints endpoint with
      | Ok k -> Ok k
      | Error e -> Error (Format.asprintf "install_stamped: %a" pp_stamp_error e))

(* Tombstone the entry and compact the priority list once more than half
   of it is dead — O(1) amortized, and [find]/[entries] never pay for
   removals in between. *)
let compact t =
  t.entries <- List.filter (fun e -> not e.dead) t.entries;
  t.n_dead <- 0

let remove t key =
  match Itbl.find_opt t.by_id key with
  | None -> ()
  | Some e ->
      e.dead <- true;
      Itbl.remove t.by_id key;
      t.n_entries <- t.n_entries - 1;
      t.n_dead <- t.n_dead + 1;
      hindex_remove t e;
      (match e.run with
      | Filter f ->
          t.n_filters <- t.n_filters - 1;
          unindex_filter t f
      | Stamp _ -> ());
      if t.n_dead > t.n_entries && t.n_dead > 32 then compact t;
      flush_cache t

let entries t = t.n_entries

let find t key = Itbl.find_opt t.by_id key

let affinity t key = Option.map (fun e -> e.affinity) (find t key)

(* An affinity change is semantically an endpoint re-install, so it
   flushes the flow cache like any other table mutation: no dispatch
   after [set_affinity] returns — cached or scanned — can steer to the
   old CPU. *)
let set_affinity t key cpu =
  match find t key with
  | None -> ()
  | Some e ->
      if e.affinity <> cpu then begin
        e.affinity <- cpu;
        flush_cache t
      end

let wcet t key =
  Option.map
    (fun e -> match e.run with Filter f -> f.f_wcet | Stamp sh -> sh.sh_wcet)
    (find t key)

let report t key =
  Option.map
    (fun e -> match e.run with Filter f -> f.f_report | Stamp sh -> sh.sh_report)
    (find t key)

let run_entry e pkt =
  match (e.run, e.exact) with
  | Filter f, _ -> f.f_pred pkt
  | Stamp sh, Some x -> sh.sh_run x.x_key pkt
  | Stamp _, None -> assert false (* a stamp is exact by construction *)

(* --- the flow cache ---------------------------------------------------- *)

(* Calibrated probe cost: hashing an n-byte key and comparing it against
   the bucket entry, modelled at 2 cycles per key byte plus a fixed
   lookup overhead — small, and independent of the table size (that
   independence is the point; a test asserts it). *)
let probe_base_cycles = 16
let probe_per_byte_cycles = 2
let probe_cycles sh = probe_base_cycles + (probe_per_byte_cycles * Array.length sh.s_offs)

let key_of_packet offs pkt =
  String.init (Array.length offs) (fun i ->
      Char.chr (Uln_buf.View.get_uint8 pkt offs.(i)))

(* Probe each shape in order; the cost accumulates over the shapes
   actually consulted. *)
let cache_lookup t pkt =
  let plen = Uln_buf.View.length pkt in
  let rec go cost = function
    | [] -> (None, cost)
    | sh :: rest ->
        let cost = cost + probe_cycles sh in
        let hit =
          if plen > sh.s_max then
            match Stbl.find_opt sh.s_tbl (key_of_packet sh.s_offs pkt) with
            | Some c when plen >= c.c_min_len && not c.c_entry.dead -> Some c.c_entry
            | _ -> None
          else None
        in
        (match hit with Some e -> (Some e, cost) | None -> go cost rest)
  in
  go 0 t.cshapes

(* A cache entry for [e] is sound only if no higher-priority (more
   recently installed) filter could accept any packet [e] accepts:
   otherwise a hit would steal that filter's traffic.  We require every
   such filter [g] to be conjunctive-exact with a byte constraint that
   contradicts one of [e]'s — then every packet matching [e]'s key is
   provably rejected by [g].  Anything weaker (a non-conjunctive [g], or
   no contradicting byte) skips caching; the linear scan stays correct. *)
let shadow_safe t (e : 'a entry) ex =
  let n = Array.length ex.x_offs in
  (* [g] pins some offset of [e]'s to another byte (the first of [e]'s
     pins at that offset counts); both offset arrays are sorted *)
  let contradicts gx =
    let rec go i j =
      i < Array.length gx.x_offs
      &&
      let o = gx.x_offs.(i) in
      if j < n && ex.x_offs.(j) < o then go i (j + 1)
      else (j < n && ex.x_offs.(j) = o && ex.x_key.[j] <> gx.x_key.[i]) || go (i + 1) j
    in
    go 0 0
  in
  let rec go = function
    | [] -> false (* e no longer installed *)
    | g :: rest ->
        if g.dead then go rest
        else if g.id = e.id then true
        else begin
          match g.exact with Some gx -> contradicts gx && go rest | None -> false
        end
  in
  go t.entries

let cache_insert t (e : 'a entry) =
  match e.exact with
  | Some x when Array.length x.x_offs > 0 && shadow_safe t e x ->
      let sh =
        match List.find_opt (fun sh -> same_offs sh.s_offs x.x_offs) t.cshapes with
        | Some sh -> sh
        | None ->
            let sh =
              { s_offs = x.x_offs;
                s_max = x.x_offs.(Array.length x.x_offs - 1);
                s_tbl = Stbl.create 64 }
            in
            t.cshapes <- t.cshapes @ [ sh ];
            sh
      in
      (match Stbl.find_opt sh.s_tbl x.x_key with
      | Some c when c.c_entry.id = e.id -> () (* already cached *)
      | _ ->
          Stbl.replace sh.s_tbl x.x_key { c_entry = e; c_min_len = x.x_min_len };
          t.c_installs <- t.c_installs + 1)
  | _ -> t.c_skips <- t.c_skips + 1

(* --- dispatch ----------------------------------------------------------- *)

let scan t pkt =
  let rec go cost = function
    | [] -> (None, cost)
    | e :: rest ->
        if e.dead then go cost rest
        else begin
          let accepted, cycles = run_entry e pkt in
          let cost = cost + cycles in
          if accepted then (Some e, cost) else go cost rest
        end
  in
  go 0 t.entries

(* Hierarchical lookup.  Soundness relative to [scan]: the linear scan
   returns the *highest-id* acceptor (entries are prepended, so priority
   order is descending id).  Exact-indexed entries accept a packet iff
   its bytes match their constraint key and it meets the minimum length
   — that is the verifier's exactness proof, so every bucket candidate
   surviving the length guard is a true acceptor and every exact entry
   outside the matching buckets is a true rejector.  Residual (inexact)
   entries run their real predicates in priority order; the first
   residual acceptor is the highest-id residual acceptor, and the
   residual scan is skipped entirely when the best exact candidate
   already outranks every residual entry (the residual head bounds their
   ids).  The maximum id over both groups is therefore exactly the scan
   winner.  Cost: one calibrated probe per shape plus any residual
   predicates actually run — independent of the number of exact entries,
   which is the point at 10^5-10^6 connections. *)
let hprobe_cycles sh = probe_base_cycles + (probe_per_byte_cycles * Array.length sh.hs_offs)

let hier_lookup t pkt =
  let plen = Uln_buf.View.length pkt in
  let best = ref None in
  let cost = ref 0 in
  let consider e =
    match !best with
    | Some b when b.id >= e.id -> ()
    | _ -> best := Some e
  in
  List.iter
    (fun sh ->
      cost := !cost + hprobe_cycles sh;
      if plen > sh.hs_max then
        match Stbl.find_opt sh.hs_tbl (key_of_packet sh.hs_offs pkt) with
        | Some bucket ->
            List.iter
              (fun e ->
                let ml = match e.exact with Some x -> x.x_min_len | None -> 0 in
                if (not e.dead) && plen >= ml then consider e)
              !bucket
        | None -> ())
    t.hshapes;
  let need_residual =
    match (!best, t.residual) with
    | _, [] -> false
    | None, _ -> true
    | Some b, r :: _ -> r.id > b.id
  in
  if need_residual then begin
    let rec go = function
      | [] -> ()
      | e :: rest ->
          if e.dead then go rest
          else begin
            let accepted, cycles = run_entry e pkt in
            cost := !cost + cycles;
            if accepted then consider e else go rest
          end
    in
    go t.residual
  end;
  (!best, !cost)

let lookup t pkt = if t.hier then hier_lookup t pkt else scan t pkt

let dispatch_entry t pkt =
  if not t.flow_cache then lookup t pkt
  else begin
    match cache_lookup t pkt with
    | Some e, cost ->
        t.c_hits <- t.c_hits + 1;
        (Some e, cost)
    | None, probe_cost ->
        t.c_misses <- t.c_misses + 1;
        let e, miss_cost = lookup t pkt in
        (match e with Some e -> cache_insert t e | None -> ());
        (e, probe_cost + miss_cost)
  end

let dispatch t pkt =
  let e, cost = dispatch_entry t pkt in
  (Option.map (fun e -> e.endpoint) e, cost)

let dispatch_steered t pkt =
  let e, cost = dispatch_entry t pkt in
  (Option.map (fun e -> (e.endpoint, e.affinity)) e, cost)
