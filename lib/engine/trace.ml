type level = Debug | Info

let sink : (Time.t -> level -> string -> string -> unit) option ref = ref None

let set_sink s = sink := s
let enabled () = !sink <> None

let emit now lvl tag msg = match !sink with None -> () | Some f -> f now lvl tag msg

let stderr_sink now lvl tag msg =
  let l = match lvl with Debug -> "dbg" | Info -> "inf" in
  Format.eprintf "[%a %s] %s: %s@." Time.pp now l tag msg

(* With no sink installed the arguments are consumed without formatting
   anything. *)
let logf lvl sched tag fmt =
  if enabled () then Format.kasprintf (fun msg -> emit (Sched.now sched) lvl tag msg) fmt
  else Format.ikfprintf ignore Format.str_formatter fmt

let debugf sched tag fmt = logf Debug sched tag fmt
let infof sched tag fmt = logf Info sched tag fmt
