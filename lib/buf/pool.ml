(* A buffer is allocated the first time [alloc] hands its slot out; until
   then the slot holds [unallocated], which no view handed out can share
   (every pool buffer is at least one byte long). *)
let unallocated = Bytes.empty

type t = {
  size : int;
  buffers : bytes array;
  free_list : int Queue.t;
  state : bool array; (* true = free *)
  mutable exhausted : int; (* allocs that found the free list empty *)
}

let create ~count ~size =
  if count <= 0 || size <= 0 then invalid_arg "Pool.create: count and size must be positive";
  let t =
    { size;
      buffers = Array.make count unallocated;
      free_list = Queue.create ();
      state = Array.make count true;
      exhausted = 0 }
  in
  for i = 0 to count - 1 do
    Queue.push i t.free_list
  done;
  t

let size t = t.size
let capacity t = Array.length t.buffers
let available t = Queue.length t.free_list
let in_use t = capacity t - available t

let index_of t (v : View.t) =
  let rec go i =
    if i >= Array.length t.buffers then None
    else if t.buffers.(i) == v.View.buffer then Some i
    else go (i + 1)
  in
  if v.View.buffer == unallocated then None else go 0

let owns t v = index_of t v <> None

let exhausted t = t.exhausted

let alloc t =
  match Queue.take_opt t.free_list with
  | None ->
      t.exhausted <- t.exhausted + 1;
      None
  | Some i ->
      t.state.(i) <- false;
      if t.buffers.(i) == unallocated then t.buffers.(i) <- Bytes.make t.size '\000';
      Some (View.of_bytes t.buffers.(i))

let free t v =
  match index_of t v with
  | None -> invalid_arg "Pool.free: view does not belong to this pool"
  | Some i ->
      if t.state.(i) then invalid_arg "Pool.free: double free"
      else begin
        t.state.(i) <- true;
        Queue.push i t.free_list
      end
