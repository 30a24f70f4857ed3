(* Declared lock hierarchy plus a runtime rank-order sanitizer.

   The static side is a table: every named lock family in the tree gets
   a rank, and the acquisition edges the code intends are declared
   explicitly.  `proto-check` verifies the declaration at build time
   (ranks exist, edges go downhill, the edge graph is acyclic).

   The runtime side is lockdep-flavoured and always on: each simulated
   thread carries the ranked locks it holds (on its [Sched.thread]), and
   acquiring a lock whose rank is <= one already held raises before the
   thread blocks — an ABBA pair is reported as a violation with both
   lock names and acquisition sites rather than as a silent deadlock. *)

type rank_entry = { re_pattern : string; re_rank : int; re_what : string }

(* Lower rank = acquired first (outermost).  Patterns are globs where
   '*' matches any run of characters; they cover the lock names the
   tree creates today (the in-kernel shared stack's big lock and
   per-CPU stack locks, netio's receive semaphore). *)
let hierarchy =
  [ { re_pattern = "*.bkl";
      re_rank = 10;
      re_what = "per-machine big kernel lock (in-kernel shared stack, Big_lock mode)" };
    { re_pattern = "*.registry.shard*.lock";
      re_rank = 15;
      re_what = "per-shard registry table lock (shard_registry mode); \
                 one-at-a-time discipline — never nested with a sibling shard" };
    { re_pattern = "*.stack*.lock";
      re_rank = 20;
      re_what = "per-CPU protocol stack lock (in-kernel shared stack, Per_conn mode)" };
    { re_pattern = "*.rx_sem";
      re_rank = 30;
      re_what = "receive-notification semaphore (netio); innermost, never held across other locks" } ]

(* Acquisition edges the code is allowed to take: (outer, inner) means
   "inner may be acquired while outer is held".  Kept separate from the
   rank table so proto-check can verify the two agree: every edge must
   go strictly downhill in rank and the graph must be acyclic. *)
let declared_edges =
  [ ("*.bkl", "*.rx_sem");
    ("*.stack*.lock", "*.rx_sem");
    ("*.registry.shard*.lock", "*.rx_sem") ]

(* Glob match with '*' = any run of characters (no other metacharacters). *)
let glob_match pattern s =
  let np = String.length pattern and ns = String.length s in
  (* memoized on (pi, si) via simple recursion; patterns are tiny *)
  let rec go pi si =
    if pi = np then si = ns
    else
      match pattern.[pi] with
      | '*' ->
          let rec try_tail si' = si' <= ns && (go (pi + 1) si' || try_tail (si' + 1)) in
          try_tail si
      | c -> si < ns && s.[si] = c && go (pi + 1) (si + 1)
  in
  go 0 0

let rank_of name =
  List.find_opt (fun e -> glob_match e.re_pattern name) hierarchy
  |> Option.map (fun e -> e.re_rank)

type violation = {
  v_thread : string;
  v_held : string;
  v_held_rank : int;
  v_held_site : string;
  v_lock : string;
  v_rank : int;
  v_site : string;
}

exception Order_violation of violation

let pp_violation ppf v =
  Format.fprintf ppf
    "lock-order violation on thread %s: acquiring %s (rank %d) at %s while holding %s (rank %d) \
     acquired at %s"
    v.v_thread v.v_lock v.v_rank v.v_site v.v_held v.v_held_rank v.v_held_site

type held = { h_name : string; h_rank : int; h_site : string }

let acquire ~thread held h =
  match List.find_opt (fun o -> o.h_rank >= h.h_rank) held with
  | Some o ->
      raise
        (Order_violation
           { v_thread = thread;
             v_held = o.h_name;
             v_held_rank = o.h_rank;
             v_held_site = o.h_site;
             v_lock = h.h_name;
             v_rank = h.h_rank;
             v_site = h.h_site })
  | None -> h :: held

let rec release held name =
  match held with
  | [] -> []
  | h :: rest when h.h_name = name -> rest
  | h :: rest -> h :: release rest name
