(* The former name of the .bench loader, kept for existing callers. *)
let parse_string = Bench_format.parse_string
let parse_file = Bench_format.parse_file
