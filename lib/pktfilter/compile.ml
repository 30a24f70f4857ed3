module View = Uln_buf.View

(* Compilation target: a continuation-passing closure per instruction.
   Each closure receives the packet, the operand stack (as a list) and
   the next closure; Cand/Cor cut the chain early exactly like the
   interpreter. *)

type k = View.t -> int list -> bool

let compile program =
  let finish : k = fun _ stack -> match stack with v :: _ -> v <> 0 | [] -> false in
  let compile_insn insn (next : k) : k =
    match insn with
    | Insn.Push_lit v -> fun pkt stack -> next pkt (v :: stack)
    | Insn.Push_word off ->
        fun pkt stack ->
          if off + 2 > View.length pkt then false
          else next pkt (View.get_uint16 pkt off :: stack)
    | Insn.Push_byte off ->
        fun pkt stack ->
          if off + 1 > View.length pkt then false
          else next pkt (View.get_uint8 pkt off :: stack)
    | Insn.Eq -> (
        fun pkt stack ->
          match stack with
          | b :: a :: rest -> next pkt ((if a = b then 1 else 0) :: rest)
          | _ -> false)
    | Insn.Ne -> (
        fun pkt stack ->
          match stack with
          | b :: a :: rest -> next pkt ((if a <> b then 1 else 0) :: rest)
          | _ -> false)
    | Insn.Lt -> (
        fun pkt stack ->
          match stack with
          | b :: a :: rest -> next pkt ((if a < b then 1 else 0) :: rest)
          | _ -> false)
    | Insn.Le -> (
        fun pkt stack ->
          match stack with
          | b :: a :: rest -> next pkt ((if a <= b then 1 else 0) :: rest)
          | _ -> false)
    | Insn.Gt -> (
        fun pkt stack ->
          match stack with
          | b :: a :: rest -> next pkt ((if a > b then 1 else 0) :: rest)
          | _ -> false)
    | Insn.Ge -> (
        fun pkt stack ->
          match stack with
          | b :: a :: rest -> next pkt ((if a >= b then 1 else 0) :: rest)
          | _ -> false)
    | Insn.And -> (
        fun pkt stack ->
          match stack with b :: a :: rest -> next pkt ((a land b) :: rest) | _ -> false)
    | Insn.Or -> (
        fun pkt stack ->
          match stack with b :: a :: rest -> next pkt ((a lor b) :: rest) | _ -> false)
    | Insn.Xor -> (
        fun pkt stack ->
          match stack with b :: a :: rest -> next pkt ((a lxor b) :: rest) | _ -> false)
    | Insn.Add -> (
        fun pkt stack ->
          match stack with
          | b :: a :: rest -> next pkt ((a + b) land 0xffff :: rest)
          | _ -> false)
    | Insn.Sub -> (
        fun pkt stack ->
          match stack with
          | b :: a :: rest -> next pkt ((a - b) land 0xffff :: rest)
          | _ -> false)
    | Insn.Shl n -> (
        fun pkt stack ->
          match stack with v :: rest -> next pkt ((v lsl n) land 0xffff :: rest) | _ -> false)
    | Insn.Shr n -> (
        fun pkt stack ->
          match stack with v :: rest -> next pkt (v lsr n :: rest) | _ -> false)
    | Insn.Cand -> (
        fun pkt stack -> match stack with v :: rest -> v <> 0 && next pkt rest | _ -> false)
    | Insn.Cor -> (
        fun pkt stack -> match stack with v :: rest -> v <> 0 || next pkt rest | _ -> false)
  in
  let chain = List.fold_right compile_insn (Program.insns program) finish in
  fun pkt -> chain pkt []

(* Counting variant: the same closure-per-instruction chain, threading
   the cycles spent so far so early exits report only executed work.
   The binding string rides along, so a hole literal reads its value
   from it; the chain itself is built once per program. *)
type kc = string -> View.t -> int list -> int -> bool * int

let compile_bound program ~hole =
  let finish : kc =
   fun _ _ stack c -> match stack with v :: _ -> (v <> 0, c) | [] -> (false, c)
  in
  let compile_insn i insn (next : kc) : kc =
    let cost = Absint.compiled_cost insn in
    let bin f : kc =
     fun key pkt stack c ->
      match stack with
      | b :: a :: rest -> next key pkt (f a b :: rest) (c + cost)
      | _ -> (false, c + cost)
    in
    match insn with
    | Insn.Push_lit v -> (
        match hole i with
        | None -> fun key pkt stack c -> next key pkt (v :: stack) (c + cost)
        | Some f -> fun key pkt stack c -> next key pkt (f key land 0xffff :: stack) (c + cost))
    | Insn.Push_word off ->
        fun key pkt stack c ->
          if off + 2 > View.length pkt then (false, c + cost)
          else next key pkt (View.get_uint16 pkt off :: stack) (c + cost)
    | Insn.Push_byte off ->
        fun key pkt stack c ->
          if off + 1 > View.length pkt then (false, c + cost)
          else next key pkt (View.get_uint8 pkt off :: stack) (c + cost)
    | Insn.Eq -> bin (fun a b -> if a = b then 1 else 0)
    | Insn.Ne -> bin (fun a b -> if a <> b then 1 else 0)
    | Insn.Lt -> bin (fun a b -> if a < b then 1 else 0)
    | Insn.Le -> bin (fun a b -> if a <= b then 1 else 0)
    | Insn.Gt -> bin (fun a b -> if a > b then 1 else 0)
    | Insn.Ge -> bin (fun a b -> if a >= b then 1 else 0)
    | Insn.And -> bin ( land )
    | Insn.Or -> bin ( lor )
    | Insn.Xor -> bin ( lxor )
    | Insn.Add -> bin (fun a b -> (a + b) land 0xffff)
    | Insn.Sub -> bin (fun a b -> (a - b) land 0xffff)
    | Insn.Shl n -> (
        fun key pkt stack c ->
          match stack with
          | v :: rest -> next key pkt ((v lsl n) land 0xffff :: rest) (c + cost)
          | _ -> (false, c + cost))
    | Insn.Shr n -> (
        fun key pkt stack c ->
          match stack with
          | v :: rest -> next key pkt (v lsr n :: rest) (c + cost)
          | _ -> (false, c + cost))
    | Insn.Cand -> (
        fun key pkt stack c ->
          match stack with
          | v :: rest -> if v <> 0 then next key pkt rest (c + cost) else (false, c + cost)
          | _ -> (false, c + cost))
    | Insn.Cor -> (
        fun key pkt stack c ->
          match stack with
          | v :: rest -> if v <> 0 then (true, c + cost) else next key pkt rest (c + cost)
          | _ -> (false, c + cost))
  in
  let insns = Program.insns program in
  let n = List.length insns in
  let chain, _ =
    List.fold_right (fun insn (next, i) -> (compile_insn i insn next, i - 1)) insns (finish, n - 1)
  in
  fun key pkt -> chain key pkt [] 0

let compile_counted program =
  let run = compile_bound program ~hole:(fun _ -> None) in
  fun pkt -> run "" pkt

let cost program ~cycle_ns = Uln_engine.Time.ns (Program.compiled_cycles program * cycle_ns)
