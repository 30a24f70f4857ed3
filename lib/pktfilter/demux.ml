type mode = Interpreted | Compiled

(* Monomorphic tables: no polymorphic hash or compare per probe.  Entry
   and group ids are sequential, so an id is its own hash. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash (i : int) = i
end)

module Stbl = Hashtbl.Make (String)

(* The overlap check's unit of work: one program object and its
   analysis, shared by every live entry that carries that program.  An
   [install] founds a group; a stamped entry joins its template's group,
   because its program is the template's; so does its verifier
   certificate (report and worst case).  The analysis is computed at
   most once per group: given by the installer, or forced by the first
   overlap check that needs it. *)
type group = {
  g_id : int;  (* the founding entry's id *)
  g_program : Program.t;  (* as installed (overlap checks use this) *)
  g_analysis : Absint.result Lazy.t;
  g_wcet : int;  (* certified worst case of the optimized program *)
  g_report : Verify.report;
  mutable g_live : int;  (* live entries in the group; dropped at 0 *)
  mutable g_slot : slot;  (* where the overlap index holds it *)
}

(* The overlap index.  A group whose analysis has one accept path with
   strictly increasing constraint offsets sits in the bucket of the
   [oshape] for that offset set, keyed by the bytes it pins there.  Its
   constraint merge with an incoming accept path that pins every offset
   of the shape can only succeed when the path pins the same bytes, so
   such a path needs that one bucket; a path leaving some offset
   unpinned needs the whole shape.  Every other group is [Residual] and
   always checked.  [Unindexed] groups (analysis not forced yet) are
   placed at the next check. *)
and slot = Unindexed | Residual | Bucket of oshape * string

and oshape = {
  os_offs : int array;  (* strictly increasing byte offsets *)
  os_buckets : group list Stbl.t;
}

type key = int

(* An exactness proof: the entry accepts exactly the packets of length
   >= [x_min_len] whose bytes at [x_offs] spell [x_key].  [x_offs] is
   sorted (stably: duplicate offsets keep their given order, so a stamp
   pinning one byte twice to different values matches nothing) and is
   the very array of the entry's hierarchical shape, shared by every
   entry of that shape.  [x_key] is both the shape's bucket key and the
   flow-cache key.  [x_min_len] covers the last offset. *)
type exact = { x_offs : int array; x_key : string; x_min_len : int }

type 'a entry = {
  id : int;
  group : group;
  run : run;
  exact : exact option;
      (* present when the optimized program is conjunctive-exact: the
         flow cache's key material, derived from the verifier's analysis
         — and the hierarchical index's partition criterion. *)
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
  mutable stamp_reject : int;
      (* a stamped entry's reject cycles, measured at the first scan that
         rejects with it; -1 until then (and always, for a program) *)
}

(* How an entry decides a packet.  An installed entry runs its optimized
   program.  A stamped entry matches its own [exact] bytes and is charged
   from its template's program: [accept_cycles] on the template's own
   accept packet, and its reject cost on the entry's near-miss packet.
   One [Stamp] value per template is shared by all of its stamps. *)
and run =
  | Predicate of (Uln_buf.View.t -> bool * int)
  | Stamp of { accept_cycles : int; template_pred : Uln_buf.View.t -> bool * int }

type 'a conflict = { against : key; with_endpoint : 'a; witness : Uln_buf.View.t }

(* One flow-cache "shape" per distinct constrained-offset set: a hash
   table keyed by the packet bytes at those offsets.  Shapes are probed
   in creation order; the soundness rule at cache-install time
   guarantees at most one cached entry can match any packet, so probe
   order cannot change the dispatch outcome. *)
type 'a cached = { c_entry : 'a entry; c_min_len : int }

type 'a shape = {
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
   picks the highest id, exactly what the priority scan would return. *)
type 'a hshape = {
  hs_offs : int array;  (* sorted byte offsets *)
  hs_max : int;  (* highest offset (length guard) *)
  hs_tbl : 'a entry list ref Stbl.t;
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
  mutable shapes : 'a shape list;
  mutable hshapes : 'a hshape list;
  mutable residual : 'a entry list;  (* inexact entries, priority order *)
  mutable n_groups : int;  (* live overlap-check groups *)
  mutable oshapes : oshape list;
  oresidual : group Itbl.t;  (* by [g_id] *)
  unindexed : group Itbl.t;  (* by [g_id] *)
  stamps : run Itbl.t;
      (* a template's [Stamp], made at its first stamped install (which
         measures the accept cycles); dropped with the template *)
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
    shapes = [];
    hshapes = [];
    residual = [];
    n_groups = 0;
    oshapes = [];
    oresidual = Itbl.create 8;
    unindexed = Itbl.create 8;
    stamps = Itbl.create 8;
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
  if t.shapes <> [] then begin
    t.shapes <- [];
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

let live_groups t = t.n_groups

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

(* --- the overlap index --------------------------------------------------- *)

let rec strictly_increasing = function
  | (o1, _) :: ((o2, _) :: _ as rest) -> o1 < o2 && strictly_increasing rest
  | _ -> true

let index_group t g =
  match (Lazy.force g.g_analysis).Absint.r_accept_paths with
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
      Stbl.replace sh.os_buckets key (g :: bucket);
      g.g_slot <- Bucket (sh, key)
  | _ ->
      Itbl.replace t.oresidual g.g_id g;
      g.g_slot <- Residual

let unindex_group t g =
  match g.g_slot with
  | Unindexed -> Itbl.remove t.unindexed g.g_id
  | Residual -> Itbl.remove t.oresidual g.g_id
  | Bucket (sh, key) -> (
      match List.filter (fun g' -> g' != g) (Stbl.find sh.os_buckets key) with
      | [] ->
          Stbl.remove sh.os_buckets key;
          if Stbl.length sh.os_buckets = 0 then
            t.oshapes <- List.filter (fun sh' -> sh' != sh) t.oshapes
      | rest -> Stbl.replace sh.os_buckets key rest)

let index_unindexed t =
  if Itbl.length t.unindexed > 0 then begin
    Itbl.iter (fun _ g -> index_group t g) t.unindexed;
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

(* One verdict per candidate group, not per entry: a populated table
   holds few distinct programs (a stamped population is one group), and
   the index narrows those to the groups whose constraints can merge
   with the incoming program's, so the common clean case never walks
   [entries].  Only when some group conflicts does the priority-ordered
   walk run, to report each of its live entries in the same order as a
   per-entry check would. *)
let conflicts t (program, a) =
  if t.n_groups = 0 then []
  else begin
    index_unindexed t;
    let hits = ref [] in
    let check g =
      let ga = Lazy.force g.g_analysis in
      match Verify.overlap_witness_analyzed (program, a) (g.g_program, ga) with
      | Some witness
        when not
               (Verify.subsumes_analyzed ~general:a ~specific:ga
               || Verify.subsumes_analyzed ~general:ga ~specific:a) ->
          hits := (g.g_id, witness) :: !hits
      | _ -> ()
    in
    Itbl.iter (fun _ g -> check g) t.oresidual;
    List.iter
      (fun sh ->
        match shape_keys sh a.Absint.r_accept_paths with
        | Some keys ->
            List.iter
              (fun k ->
                match Stbl.find_opt sh.os_buckets k with
                | Some gs -> List.iter check gs
                | None -> ())
              keys
        | None -> Stbl.iter (fun _ gs -> List.iter check gs) sh.os_buckets)
      t.oshapes;
    if !hits = [] then []
    else
      let witness_of = Itbl.of_seq (List.to_seq !hits) in
      List.filter_map
        (fun e ->
          if e.dead then None
          else
            match Itbl.find_opt witness_of e.group.g_id with
            | Some witness -> Some { against = e.id; with_endpoint = e.endpoint; witness }
            | None -> None)
        t.entries
  end

(* --- the hierarchical index -------------------------------------------- *)

let by_offset (a, _) (b, _) = Int.compare a b

let rec sorted_by_offset = function
  | (o1, _) :: ((o2, _) :: _ as rest) -> o1 <= o2 && sorted_by_offset rest
  | _ -> true

let find_hshape t offs = List.find_opt (fun sh -> same_offs sh.hs_offs offs) t.hshapes

(* The exactness proof of a constraint set.  Constraints usually arrive
   sorted; otherwise they are sorted stably, as [List.sort] would.  The
   offsets array is the existing shape's when there is one. *)
let exact_of t cs min_len =
  let cs = if sorted_by_offset cs then cs else List.stable_sort by_offset cs in
  let n = List.length cs in
  let offs = Array.make n 0 and key = Bytes.create n in
  List.iteri
    (fun i (o, v) ->
      offs.(i) <- o;
      Bytes.set key i (Char.chr v))
    cs;
  { x_offs = (match find_hshape t offs with Some sh -> sh.hs_offs | None -> offs);
    x_key = Bytes.unsafe_to_string key;
    x_min_len = (if n = 0 then min_len else max min_len (offs.(n - 1) + 1)) }

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
                hs_tbl = Stbl.create 256 }
            in
            t.hshapes <- t.hshapes @ [ sh ];
            sh
      in
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
          match Stbl.find_opt sh.hs_tbl x.x_key with
          | None -> ()
          | Some bucket -> (
              match List.filter (fun g -> g.id <> e.id) !bucket with
              | [] -> Stbl.remove sh.hs_tbl x.x_key
              | rest -> bucket := rest)))
  | _ -> t.residual <- List.filter (fun g -> g.id <> e.id) t.residual

(* --- install / remove --------------------------------------------------- *)

let add_entry t entry =
  let g = entry.group in
  if g.g_live = 0 then begin
    t.n_groups <- t.n_groups + 1;
    if Lazy.is_val g.g_analysis then index_group t g
    else Itbl.replace t.unindexed g.g_id g
  end;
  g.g_live <- g.g_live + 1;
  t.entries <- entry :: t.entries;
  Itbl.add t.by_id entry.id entry;
  t.n_entries <- t.n_entries + 1;
  hindex_add t entry;
  flush_cache t

(* [raw] is the analysis of [program] as given; it becomes the group's,
   unless [program] runs as is and the optimized analysis already is. *)
let admit_and_add ~optimize ~affinity t program raw endpoint =
  let optimized = if optimize then Optimize.run program else program in
  let a = Absint.analyze optimized in
  match Verify.admit_analyzed ?budget:t.budget ~compiled:(t.mode = Compiled) a with
  | Error e -> Error e
  | Ok report ->
      let predicate =
        match t.mode with
        | Interpreted -> fun pkt -> Interp.run_counted optimized pkt
        | Compiled -> Compile.compile_counted optimized
      in
      let wcet =
        match t.mode with
        | Interpreted -> report.Verify.wcet_interp
        | Compiled -> report.Verify.wcet_compiled
      in
      let exact =
        if a.Absint.r_conjunctive then
          match a.Absint.r_accept_paths with
          | [ ap ] when ap.Absint.ap_exact && ap.Absint.ap_at = None ->
              Some (exact_of t ap.Absint.ap_constraints ap.Absint.ap_min_len)
          | _ -> None
        else None
      in
      t.next_id <- t.next_id + 1;
      let group =
        { g_id = t.next_id;
          g_program = program;
          g_analysis = (if program == optimized then Lazy.from_val a else raw);
          g_wcet = wcet;
          g_report = report;
          g_live = 0;
          g_slot = Unindexed }
      in
      let entry =
        { id = t.next_id; group; run = Predicate predicate; exact; endpoint; affinity;
          dead = false; stamp_reject = -1 }
      in
      add_entry t entry;
      Ok entry.id

let install ?(optimize = true) ?(affinity = 0) t program endpoint =
  admit_and_add ~optimize ~affinity t program (lazy (Absint.analyze program)) endpoint

let install_analyzed ?(affinity = 0) t (program, a) endpoint =
  admit_and_add ~optimize:true ~affinity t program (Lazy.from_val a) endpoint

let install_exn ?optimize ?affinity t program endpoint =
  match install ?optimize ?affinity t program endpoint with
  | Ok k -> k
  | Error e -> raise (Verify.Rejected e)

(* Synthesize the cheapest packet satisfying a proof, for deriving
   stamped-entry cycle costs from a template's real program.  Bytes are
   written in offset order, so of two pins of one offset the later wins. *)
let packet_of_exact x =
  let v = Uln_buf.View.create x.x_min_len in
  Array.iteri (fun i o -> Uln_buf.View.set_uint8 v o (Char.code x.x_key.[i])) x.x_offs;
  v

let matches x pkt =
  Uln_buf.View.length pkt >= x.x_min_len
  &&
  let n = Array.length x.x_offs in
  let rec go i =
    i = n
    || Uln_buf.View.get_uint8 pkt x.x_offs.(i) = Char.code (String.unsafe_get x.x_key i)
       && go (i + 1)
  in
  go 0

(* The accepted flag and the cycles charged for running entry [e] on
   [pkt].  A stamped entry's reject cost is the template's program on the
   entry's near-miss packet (one differing only in the stamped bytes),
   measured here the first time it is needed: the hierarchical path never
   runs a stamped entry, so a population that is only ever probed through
   the index never pays for it. *)
let run_entry e pkt =
  match (e.run, e.exact) with
  | Predicate p, _ -> p pkt
  | Stamp s, Some x ->
      if matches x pkt then (true, s.accept_cycles)
      else begin
        if e.stamp_reject < 0 then e.stamp_reject <- snd (s.template_pred (packet_of_exact x));
        (false, e.stamp_reject)
      end
  | Stamp _, None -> assert false (* stamped entries are exact by construction *)

(* A constraint is an offset in a packet and a byte value. *)
let valid_constraint (o, v) = o >= 0 && v >= 0 && v <= 0xff

(* Prestamped install: the registry (or a scale bench) derives a
   connection filter from an already-admitted template by overriding its
   byte constraints — the same program shape with the connection's
   addresses stamped in.  No verifier pass runs: the template's
   admission certificate covers the stamped program (identical
   instruction structure, identical worst case), which is what makes a
   10^6-entry population feasible.  The entry's dispatch behaviour is
   the constraint match itself ([run_entry]); its charged cycle costs are
   measured from the template's real program — the accept cost on the
   template's own accept packet (once per template, here), the reject
   cost on this entry's near-miss (at its first use).  The entry holds
   its proof, the template's shared [Stamp] and its group: no closure. *)
let install_stamped ?(affinity = 0) t ~template ~constraints ~min_len endpoint =
  match Itbl.find_opt t.by_id template with
  | None -> Error "install_stamped: unknown template"
  | Some te when te.dead -> Error "install_stamped: template was removed"
  | Some te -> (
      match te.exact with
      | None -> Error "install_stamped: template is not conjunctive-exact"
      | Some tx ->
          if constraints = [] then Error "install_stamped: empty constraint set"
          else if not (List.for_all valid_constraint constraints) then
            Error "install_stamped: constraint is not an (offset, byte) pair"
          else begin
            let run =
              match Itbl.find_opt t.stamps template with
              | Some run -> run
              | None ->
                  let template_pred = match te.run with Predicate p -> p | Stamp _ -> run_entry te in
                  let run =
                    Stamp { accept_cycles = snd (template_pred (packet_of_exact tx)); template_pred }
                  in
                  Itbl.replace t.stamps template run;
                  run
            in
            t.next_id <- t.next_id + 1;
            let entry =
              { id = t.next_id;
                group = te.group;
                run;
                exact = Some (exact_of t constraints min_len);
                endpoint;
                affinity;
                dead = false;
                stamp_reject = -1 }
            in
            add_entry t entry;
            Ok entry.id
          end)

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
      Itbl.remove t.stamps key;
      let g = e.group in
      g.g_live <- g.g_live - 1;
      if g.g_live = 0 then begin
        t.n_groups <- t.n_groups - 1;
        unindex_group t g
      end;
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
let wcet t key = Option.map (fun e -> e.group.g_wcet) (find t key)
let report t key = Option.map (fun e -> e.group.g_report) (find t key)

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
  go 0 t.shapes

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
        match List.find_opt (fun sh -> same_offs sh.s_offs x.x_offs) t.shapes with
        | Some sh -> sh
        | None ->
            let sh =
              { s_offs = x.x_offs;
                s_max = x.x_offs.(Array.length x.x_offs - 1);
                s_tbl = Stbl.create 64 }
            in
            t.shapes <- t.shapes @ [ sh ];
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
