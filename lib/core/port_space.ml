type t = { stride : int; start : int; hi : int; size : int; mutable cursor : int }
type error = Exhausted

let create ?(stride = 1) ?(residue = 0) ?first ~lo ~hi () =
  (* the lowest port >= lo in the residue class *)
  let start = lo + ((((residue - lo) mod stride) + stride) mod stride) in
  let size = if start > hi then 0 else ((hi - start) / stride) + 1 in
  { stride; start; hi; size; cursor = Option.value first ~default:start }

let take t ~held =
  let rec go n p =
    if n = 0 then Error Exhausted
    else
      let next = if p + t.stride > t.hi then t.start else p + t.stride in
      if held p then go (n - 1) next
      else begin
        t.cursor <- next;
        Ok p
      end
  in
  go t.size t.cursor

(* First fit is a fresh cursor over the block bases. *)
let find_block ~lo ~hi ~size ~held =
  let rec free p stop = p >= stop || ((not (held p)) && free (p + 1) stop) in
  take
    (create ~stride:size ~residue:lo ~lo ~hi:(hi - size + 1) ())
    ~held:(fun base -> not (free base (base + size)))
