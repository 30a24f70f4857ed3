(* RFC 2018 selective-acknowledgement machinery, both directions.
   Ranges are [left, right) sequence-number intervals, kept sorted and
   disjoint.  All arithmetic is mod-2^32 via Tcp_seq, anchored at the
   current cumulative-ACK point: anything at or below [una] is dropped
   eagerly so the working set stays a handful of holes. *)

type t = { mutable ranges : (Tcp_seq.t * Tcp_seq.t) list }

let create () = { ranges = [] }
let clear t = t.ranges <- []
let is_empty t = t.ranges = []

let sacked_bytes t =
  List.fold_left (fun acc (l, r) -> acc + Tcp_seq.diff r l) 0 t.ranges

(* Drop everything the cumulative ACK has passed. *)
let forward t ~una =
  t.ranges <-
    List.filter_map
      (fun (l, r) ->
        if Tcp_seq.le r una then None
        else if Tcp_seq.lt l una then Some (una, r)
        else Some (l, r))
      t.ranges

let insert_range t (l, r) =
  if Tcp_seq.ge l r then ()
  else begin
    (* Merge into the sorted disjoint list: absorb every overlapping or
       adjacent range. *)
    let rec go l r = function
      | [] -> [ (l, r) ]
      | (a, b) :: rest ->
          if Tcp_seq.lt r a then (l, r) :: (a, b) :: rest
          else if Tcp_seq.lt b l then (a, b) :: go l r rest
          else go (Tcp_seq.min l a) (Tcp_seq.max r b) rest
    in
    t.ranges <- go l r t.ranges
  end

let add t ~una blocks =
  List.iter
    (fun (l, r) ->
      (* A receiver never legitimately SACKs below its own cumulative
         ACK; clip defensively rather than trusting the wire. *)
      let l = Tcp_seq.max l una in
      insert_range t (l, r))
    blocks;
  forward t ~una

(* First unSACKed interval starting at or after [from], clipped to
   [upto].  The scoreboard is sorted, so one pass suffices. *)
let next_hole t ~from ~upto =
  let rec go from = function
    | [] -> if Tcp_seq.lt from upto then Some (from, upto) else None
    | (l, r) :: rest ->
        if Tcp_seq.le r from then go from rest
        else if Tcp_seq.lt from l then Some (from, Tcp_seq.min l upto)
        else (* from inside [l, r): skip past the sacked range *)
          go r rest
  in
  if Tcp_seq.ge from upto then None
  else
    match go from t.ranges with
    | Some (l, r) when Tcp_seq.lt l r && Tcp_seq.le r upto -> Some (l, r)
    | Some (l, r) when Tcp_seq.lt l upto -> Some (l, Tcp_seq.min r upto)
    | _ -> None

let highest t =
  match List.rev t.ranges with [] -> None | (_, r) :: _ -> Some r

(* Bytes SACKed at or above [seq] — the RFC 6675 "IsLost" evidence: a
   hole counts as lost (rather than still in flight) only once enough
   data beyond it has been selectively acknowledged. *)
let sacked_above t seq =
  List.fold_left
    (fun acc (l, r) ->
      if Tcp_seq.ge l seq then acc + Tcp_seq.diff r l
      else if Tcp_seq.gt r seq then acc + Tcp_seq.diff r seq
      else acc)
    0 t.ranges

(* --- receive side: block selection ------------------------------------ *)

(* RFC 2018 §4: the first block must be the range containing the segment
   that most recently arrived, so the sender learns the newest
   information even if earlier report segments are lost; remaining slots
   re-report the other out-of-order ranges, capped at [limit]. *)
let select_blocks ~recent ~limit ranges =
  let containing =
    match recent with
    | None -> None
    | Some seq ->
        List.find_opt (fun (l, r) -> Tcp_seq.le l seq && Tcp_seq.le seq r) ranges
  in
  let rest =
    match containing with
    | None -> ranges
    | Some b -> List.filter (fun b' -> b' <> b) ranges
  in
  let ordered = (match containing with None -> [] | Some b -> [ b ]) @ rest in
  let rec take n = function
    | [] -> []
    | x :: xs -> if n = 0 then [] else x :: take (n - 1) xs
  in
  take limit ordered
