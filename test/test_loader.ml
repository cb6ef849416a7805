(* Differential and scale tests for the .bench loader.

   Bench_oracle is the worklist elaborator the loader replaced, kept
   test-side as a reference: on every bundled circuit and on generated
   files (random statement order, wide operators, flip-flop cuts,
   one-input aliases) the loader must reproduce its netlist exactly —
   same gate ids, names, cells and fanins, same flat CSR columns, and
   bit-identical sweep moments.  The scale group loads inverter chains
   written back to front, the statement order that made the worklist
   quadratic. *)

open Circuit

let model = Sigma_model.paper_default
let library = Cell.Library.default ()
let bits = Int64.bits_of_float

let check_floats_identical msg (a : float array) (b : float array) =
  Alcotest.(check int) (msg ^ ": length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      if not (Int64.equal (bits x) (bits b.(i))) then
        Alcotest.failf "%s: slot %d: %h <> %h" msg i x b.(i))
    a

let check_netlists_equal msg a b =
  let fa = Netlist.flat a and fb = Netlist.flat b in
  Alcotest.(check int) (msg ^ ": n_gates") (Netlist.n_gates a) (Netlist.n_gates b);
  Alcotest.(check int) (msg ^ ": n_pis") (Netlist.n_pis a) (Netlist.n_pis b);
  Alcotest.(check int) (msg ^ ": n_pos") (Netlist.n_pos a) (Netlist.n_pos b);
  for i = 0 to Netlist.n_pis a - 1 do
    Alcotest.(check string) (msg ^ ": pi name") (Netlist.pi_name a i) (Netlist.pi_name b i)
  done;
  for i = 0 to Netlist.n_pos a - 1 do
    Alcotest.(check string) (msg ^ ": po name") (Netlist.po_name a i) (Netlist.po_name b i)
  done;
  for id = 0 to Netlist.n_gates a - 1 do
    let ga = Netlist.gate a id and gb = Netlist.gate b id in
    Alcotest.(check string)
      (Printf.sprintf "%s: gate %d name" msg id)
      ga.Netlist.gate_name gb.Netlist.gate_name;
    Alcotest.(check string)
      (Printf.sprintf "%s: gate %d cell" msg id)
      ga.Netlist.cell.Cell.name gb.Netlist.cell.Cell.name;
    Alcotest.(check (array (of_pp Fmt.(of_to_string (function
        | Netlist.Pi i -> "pi" ^ string_of_int i
        | Netlist.Gate g -> "g" ^ string_of_int g)))))
      (Printf.sprintf "%s: gate %d fanin" msg id)
      ga.Netlist.fanin gb.Netlist.fanin
  done;
  Alcotest.(check (array int)) (msg ^ ": perm") fa.Netlist.perm fb.Netlist.perm;
  Alcotest.(check (array int)) (msg ^ ": lvl_off") fa.Netlist.lvl_off fb.Netlist.lvl_off;
  Alcotest.(check (array int)) (msg ^ ": fi_off") fa.Netlist.fi_off fb.Netlist.fi_off;
  Alcotest.(check (array int)) (msg ^ ": fi_node") fa.Netlist.fi_node fb.Netlist.fi_node;
  Alcotest.(check (array int)) (msg ^ ": fo_off") fa.Netlist.fo_off fb.Netlist.fo_off;
  Alcotest.(check (array int))
    (msg ^ ": fo_consumer") fa.Netlist.fo_consumer fb.Netlist.fo_consumer;
  check_floats_identical (msg ^ ": fo_mult") fa.Netlist.fo_mult fb.Netlist.fo_mult;
  check_floats_identical (msg ^ ": fo_cin") fa.Netlist.fo_cin fb.Netlist.fo_cin;
  check_floats_identical (msg ^ ": wire load") fa.Netlist.g_wire_load fb.Netlist.g_wire_load;
  Alcotest.(check (array int)) (msg ^ ": po_node") fa.Netlist.po_node fb.Netlist.po_node;
  (* And the sweeps agree bit for bit. *)
  let sweep net =
    let arena = Sta.Arena.create net in
    Sta.Ssta.forward_raw ~model arena ~sizes:(Netlist.min_sizes net);
    (Sta.Arena.circuit_mu arena, Sta.Arena.circuit_var arena)
  in
  let mu_a, var_a = sweep a and mu_b, var_b = sweep b in
  if not (Int64.equal (bits mu_a) (bits mu_b) && Int64.equal (bits var_a) (bits var_b))
  then Alcotest.failf "%s: circuit moments differ: (%h,%h) <> (%h,%h)" msg mu_a var_a mu_b var_b

let load msg text =
  match Bench_format.parse_string ~library text with
  | Ok net -> net
  | Error e -> Alcotest.failf "%s: %s" msg (Format.asprintf "%a" Bench_format.pp_error e)

let check_against_oracle msg text =
  match Bench_oracle.parse_string ~library text with
  | Error m -> Alcotest.failf "%s: the oracle rejected it: %s" msg m
  | Ok reference -> check_netlists_equal msg reference (load msg text)

(* ---- the worklist oracle ----------------------------------------------------- *)

let c17_bench =
  {|# c17
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
|}

(* Covers the decomposition paths: wide AND/NAND/XOR, BUFF/NOT, a DFF
   cut, a one-input AND alias, comments and blank lines. *)
let synthetic_bench =
  {|# synthetic decomposition exercise
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
INPUT(e)

s = DFF(w)
w = NAND(a, b, c, d, e)
x = AND(a, b, c, d)
y = XOR(x, s, c)
z = NOR(y, w, d)
o = NOT(z)
p = BUFF(o)
q = AND(p)   # alias
OUTPUT(q)
OUTPUT(y)
|}

let read_file name =
  let path =
    match List.find_opt Sys.file_exists [ "../examples/" ^ name; "examples/" ^ name ] with
    | Some p -> p
    | None -> Alcotest.failf "examples/%s not found (is it a test dep?)" name
  in
  In_channel.with_open_bin path In_channel.input_all

let test_examples_match_oracle () =
  check_against_oracle "c17" c17_bench;
  check_against_oracle "cla4.bench" (read_file "cla4.bench");
  check_against_oracle "synthetic" synthetic_bench

(* A random well-formed .bench text: primary inputs, flip-flops whose
   data input is any net, and combinational assignments whose fanins
   come from earlier nets only (so the circuit is acyclic), all
   shuffled into a random statement order with comments and blank
   lines between them. *)
let gen_bench st =
  let int lo hi = lo + Random.State.int st (hi - lo + 1) in
  let n_pis = int 1 5 and n_dffs = int 0 3 and n_gates = int 1 40 in
  let sources = Array.make (n_pis + n_dffs + n_gates) "" in
  for i = 0 to n_pis - 1 do sources.(i) <- Printf.sprintf "i%d" i done;
  for i = 0 to n_dffs - 1 do sources.(n_pis + i) <- Printf.sprintf "q%d" i done;
  let statements = ref [] in
  let emit s = statements := s :: !statements in
  for i = 0 to n_pis - 1 do emit (Printf.sprintf "INPUT(%s)" sources.(i)) done;
  for k = 0 to n_gates - 1 do
    let avail = n_pis + n_dffs + k in
    let op, arity =
      match Random.State.int st 9 with
      | 0 -> ("NOT", 1)
      | 1 -> ("BUFF", 1)
      | 2 -> ("AND", 1)
      | 3 -> ("AND", int 2 7)
      | 4 -> ("OR", int 1 6)
      | 5 -> ("NAND", int 2 7)
      | 6 -> ("NOR", int 2 6)
      | 7 -> ("XOR", int 2 5)
      | _ -> ("NAND", 2)
    in
    let args = List.init arity (fun _ -> sources.(Random.State.int st avail)) in
    let name = Printf.sprintf "n%d" k in
    sources.(avail) <- name;
    emit (Printf.sprintf "%s = %s(%s)" name op (String.concat ", " args))
  done;
  let any () = sources.(Random.State.int st (Array.length sources)) in
  for i = 0 to n_dffs - 1 do
    emit (Printf.sprintf "%s = DFF(%s)" sources.(n_pis + i) (any ()))
  done;
  emit (Printf.sprintf "OUTPUT(%s)" sources.(Array.length sources - 1));
  for _ = 1 to int 0 3 do emit (Printf.sprintf "OUTPUT(%s)" (any ())) done;
  let lines = Array.of_list !statements in
  for i = Array.length lines - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = lines.(i) in
    lines.(i) <- lines.(j);
    lines.(j) <- t
  done;
  Array.to_list lines
  |> List.concat_map (fun l ->
         match Random.State.int st 8 with
         | 0 -> [ "# comment"; l ]
         | 1 -> [ ""; l ]
         | _ -> [ l ])
  |> String.concat "\n"

let prop_generated_match_oracle =
  QCheck.Test.make ~name:"generated files match the worklist oracle" ~count:150
    (QCheck.make ~print:Fun.id gen_bench)
    (fun text ->
      check_against_oracle "generated" text;
      true)

(* ---- scale: chains written back to front ------------------------------------- *)

(* An [n]-inverter chain x0 -> x1 -> ... -> xn, its assignments in
   source order or reversed.  Reversed, every worklist round retires a
   single gate. *)
let chain_text ~reverse n =
  let b = Buffer.create (n * 20) in
  Buffer.add_string b (Printf.sprintf "INPUT(x0)\nOUTPUT(x%d)\n" n);
  let line k = Buffer.add_string b (Printf.sprintf "x%d = NOT(x%d)\n" k (k - 1)) in
  if reverse then for k = n downto 1 do line k done else for k = 1 to n do line k done;
  Buffer.contents b

let test_reverse_chain_5k () =
  let n = 5_000 in
  let forward = load "in-order chain" (chain_text ~reverse:false n) in
  let reverse = load "reverse chain" (chain_text ~reverse:true n) in
  Alcotest.(check int) "depth" n (Netlist.depth reverse);
  check_netlists_equal "5k chain" forward reverse

(* Release only, like the arena's 10^5-gate smoke: the dev profile's
   unoptimised build would spend most of the bound elsewhere. *)
let test_reverse_chain_million () =
  if not (Release_profile.kernels_inlined ()) then Alcotest.skip ()
  else begin
    let n = 1_000_000 in
    let text = chain_text ~reverse:true n in
    let t0 = Util.Instr.now_ns () in
    let net = load "10^6 reverse chain" text in
    let seconds = float_of_int (Util.Instr.now_ns () - t0) /. 1e9 in
    Printf.printf "10^6-gate reverse chain loaded in %.2f s\n%!" seconds;
    Alcotest.(check int) "n_gates" n (Netlist.n_gates net);
    Alcotest.(check int) "depth" n (Netlist.depth net);
    if seconds >= 30. then Alcotest.failf "load took %.1f s (bound 30 s)" seconds
  end

let () =
  Alcotest.run "loader"
    [
      ( "oracle",
        [
          Alcotest.test_case "examples match the worklist oracle" `Quick
            test_examples_match_oracle;
          Seed_info.to_alcotest prop_generated_match_oracle;
        ] );
      ( "scale",
        [
          Alcotest.test_case "5k reverse chain equals in-order chain" `Quick
            test_reverse_chain_5k;
          Alcotest.test_case "10^6-gate reverse chain (release only)" `Slow
            test_reverse_chain_million;
        ] );
    ]
