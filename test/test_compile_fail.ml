(* The compile-fail harness: the session-typed FSM's static claims are
   only as good as the programs it rejects.  Each compile_fail/bad_*.ml
   snippet encodes one forbidden flow (data send before ESTABLISHED,
   BQI exchange outside the handshake, transition out of a retired
   TIME_WAIT witness, a request of the wrong type on a registry leg)
   and must be refused by the type checker;
   compile_fail/good.ml is the positive control proving the harness
   flags actually compile well-typed code.

   Runs the compiler out of process against the already-built library
   cmis, so the snippets never become part of the build proper. *)

let lib_dirs =
  [ "../lib/proto/.uln_proto.objs/byte";
    "../lib/engine/.uln_engine.objs/byte";
    "../lib/buf/.uln_buf.objs/byte";
    "../lib/addr/.uln_addr.objs/byte";
    "../lib/host/.uln_host.objs/byte";
    "../lib/netsim/.uln_net.objs/byte";
    "../lib/pktfilter/.uln_filter.objs/byte";
    "../lib/core/.uln_core.objs/byte" ]

let quote = Filename.quote

let compile src =
  (* Type-check only (-c); artifacts land in a scratch directory so the
     build tree stays clean. *)
  let tmp = Filename.temp_file "uln_compile_fail" "" in
  Sys.remove tmp;
  assert (Sys.command (Printf.sprintf "mkdir -p %s" (quote tmp)) = 0);
  let here = Sys.getcwd () in
  let incls =
    String.concat " " (List.map (fun d -> "-I " ^ quote (Filename.concat here d)) lib_dirs)
  in
  let base = Filename.basename src in
  let cmd_cp = Printf.sprintf "cp %s %s" (quote src) (quote (Filename.concat tmp base)) in
  assert (Sys.command cmd_cp = 0);
  let log = Filename.concat tmp "out.log" in
  let cmd =
    Printf.sprintf "cd %s && ocamlfind ocamlopt -c %s %s > %s 2>&1" (quote tmp) incls
      (quote base) (quote log)
  in
  let rc = Sys.command cmd in
  let ic = open_in_bin log in
  let out = really_input_string ic (in_channel_length ic) in
  close_in ic;
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (quote tmp)));
  (rc, out)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let () =
  let dir = "compile_fail" in
  let snippets = Sys.readdir dir |> Array.to_list |> List.sort compare in
  let ok = ref true in
  let seen_good = ref 0 and seen_bad = ref 0 in
  List.iter
    (fun f ->
      if Filename.check_suffix f ".ml" then begin
        let rc, out = compile (Filename.concat dir f) in
        let expect_fail = String.length f >= 4 && String.sub f 0 4 = "bad_" in
        if expect_fail then incr seen_bad else incr seen_good;
        match (expect_fail, rc = 0) with
        | false, true -> Printf.printf "%-32s compiles (as it must)\n" f
        | true, false when contains out "Error" ->
            Printf.printf "%-32s rejected by the type checker (as it must be)\n" f
        | false, false ->
            ok := false;
            Printf.printf "%-32s FAILED to compile but should:\n%s\n" f out
        | true, true ->
            ok := false;
            Printf.printf "%-32s compiled but must be rejected\n" f
        | true, false ->
            ok := false;
            Printf.printf "%-32s failed without a type error (harness broken?):\n%s\n" f out
      end)
    snippets;
  if !seen_good = 0 || !seen_bad < 3 then begin
    ok := false;
    Printf.printf "harness: expected >= 1 good and >= 3 bad snippets, found %d/%d\n"
      !seen_good !seen_bad
  end;
  if not !ok then exit 1;
  Printf.printf "compile-fail: %d snippets behaved as specified\n" (!seen_good + !seen_bad)
