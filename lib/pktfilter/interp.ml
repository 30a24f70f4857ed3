module View = Uln_buf.View

(* One executable form serves both entry points: the instructions as an
   array and, per instruction, an optional hole — a literal whose value
   is read from a binding string instead of the program text.  The loop
   keeps its state in arguments, so a run allocates only its stack and
   its result. *)
let exec code holes key pkt =
  let len = View.length pkt in
  let n = Array.length code in
  let stack = Array.make Program.max_stack 0 in
  let bin sp v = stack.(sp - 2) <- v land 0xffff in
  let rec go i sp cycles =
    if i = n then (stack.(sp - 1) <> 0, cycles)
    else
      let insn = Array.unsafe_get code i in
      let cycles = cycles + Insn.cycles insn in
      match insn with
      | Insn.Push_lit v ->
          stack.(sp) <- (match holes.(i) with None -> v | Some hole -> hole key land 0xffff);
          go (i + 1) (sp + 1) cycles
      | Insn.Push_word off ->
          if off + 2 > len then (false, cycles)
          else begin
            stack.(sp) <- View.get_uint16 pkt off;
            go (i + 1) (sp + 1) cycles
          end
      | Insn.Push_byte off ->
          if off + 1 > len then (false, cycles)
          else begin
            stack.(sp) <- View.get_uint8 pkt off;
            go (i + 1) (sp + 1) cycles
          end
      | Insn.Shl k ->
          stack.(sp - 1) <- (stack.(sp - 1) lsl k) land 0xffff;
          go (i + 1) sp cycles
      | Insn.Shr k ->
          stack.(sp - 1) <- stack.(sp - 1) lsr k;
          go (i + 1) sp cycles
      | Insn.Cand -> if stack.(sp - 1) = 0 then (false, cycles) else go (i + 1) (sp - 1) cycles
      | Insn.Cor -> if stack.(sp - 1) <> 0 then (true, cycles) else go (i + 1) (sp - 1) cycles
      | op ->
          let a = stack.(sp - 2) and b = stack.(sp - 1) in
          let flag c = if c then 1 else 0 in
          bin sp
            (match op with
            | Insn.Eq -> flag (a = b)
            | Insn.Ne -> flag (a <> b)
            | Insn.Lt -> flag (a < b)
            | Insn.Le -> flag (a <= b)
            | Insn.Gt -> flag (a > b)
            | Insn.Ge -> flag (a >= b)
            | Insn.And -> a land b
            | Insn.Or -> a lor b
            | Insn.Xor -> a lxor b
            | Insn.Add -> a + b
            | Insn.Sub -> a - b
            | Insn.Push_lit _ | Insn.Push_word _ | Insn.Push_byte _ | Insn.Shl _ | Insn.Shr _
            | Insn.Cand | Insn.Cor ->
                assert false);
          go (i + 1) (sp - 1) cycles
  in
  go 0 0 0

let run_bound program ~hole =
  let code = Array.of_list (Program.insns program) in
  let holes = Array.init (Array.length code) hole in
  fun key pkt -> exec code holes key pkt

let run_counted program =
  let run = run_bound program ~hole:(fun _ -> None) in
  fun pkt -> run "" pkt

let run program pkt = fst (run_counted program pkt)

let cost program ~cycle_ns = Uln_engine.Time.ns (Program.interp_cycles program * cycle_ns)
