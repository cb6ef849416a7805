(* Differential and scale tests for the .bench loader.

   Bench_oracle is the worklist elaborator the loader replaced, kept
   test-side as a reference: on every bundled circuit and on generated
   files (random statement order, wide operators, flip-flop cuts,
   one-input aliases) the loader must reproduce its netlist exactly —
   same gate ids, names, cells and fanins, same flat CSR columns, and
   bit-identical sweep moments.  The golden group pins what a few
   thousand single-edit mutants of c17 and cla4.bench load or fail to.
   The scale group loads inverter chains written back to front, the
   statement order that made the worklist quadratic. *)

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

(* ---- golden: seeded single-edit mutations ------------------------------------ *)

(* Every result of loading a few thousand single-edit mutants of c17 and
   cla4.bench, folded into one FNV-1a digest: an [Ok] contributes its
   names, cells and flat CSR columns, an [Error] its line and message.
   The digest was captured from the loader before its zero-copy
   rewrite, so any change in what a text loads to, or in how and where
   it fails, moves it. *)

(* A 63-bit LCG: the mutants must not depend on the stdlib's Random. *)
let lcg_next s = (s * 3935559000370003845) + 1
let fnv_prime = 0x100000001b3L

type digest = { mutable h : int64 }

let feed_byte d c =
  d.h <- Int64.mul (Int64.logxor d.h (Int64.of_int (Char.code c))) fnv_prime

let feed_string d s =
  String.iter (feed_byte d) s;
  feed_byte d '\000'

let feed_int d n = feed_string d (string_of_int n)
let feed_ints d a = feed_int d (Array.length a); Array.iter (feed_int d) a

let feed_floats d a =
  feed_int d (Array.length a);
  Array.iter (fun x -> feed_string d (Int64.to_string (bits x))) a

let feed_result d = function
  | Error { Bench_format.line; message } ->
      feed_string d "error";
      feed_int d line;
      feed_string d message
  | Ok net ->
      feed_string d "ok";
      feed_int d (Netlist.n_pis net);
      for i = 0 to Netlist.n_pis net - 1 do feed_string d (Netlist.pi_name net i) done;
      feed_int d (Netlist.n_pos net);
      for i = 0 to Netlist.n_pos net - 1 do feed_string d (Netlist.po_name net i) done;
      feed_int d (Netlist.n_gates net);
      Array.iter
        (fun (g : Netlist.gate) -> feed_string d g.Netlist.cell.Cell.name)
        (Netlist.gates net);
      let f = Netlist.flat net in
      feed_ints d f.Netlist.perm;
      feed_ints d f.Netlist.lvl_off;
      feed_ints d f.Netlist.fi_off;
      feed_ints d f.Netlist.fi_node;
      feed_ints d f.Netlist.po_node;
      feed_ints d f.Netlist.fo_off;
      feed_ints d f.Netlist.fo_consumer;
      feed_floats d f.Netlist.fo_mult;
      feed_floats d f.Netlist.fo_cin;
      feed_floats d f.Netlist.g_t_int;
      feed_floats d f.Netlist.g_drive;
      feed_floats d f.Netlist.g_wire_load;
      feed_floats d f.Netlist.g_max_size

(* Bytes and words an edit inserts: the grammar's punctuation, blanks,
   name characters and keywords in several cases. *)
let edit_bytes = "()=,# \n\t\rabxyAGN01_"

let edit_words =
  [| "AND"; "nand"; "Or"; "NOR"; "xor"; "NOT"; "BUFF"; "buf"; "DFF"; "INPUT"; "output";
     "FROB"; "G10"; "A0"; "_ff"; "," ; "()" |]

(* One single edit of [text] chosen by [r]: delete, insert or replace a
   byte; insert a word; delete, duplicate or swap whole lines. *)
let mutate text r =
  let pick k = (r lsr 17) mod k and pick2 k = (r lsr 40) mod k in
  let len = String.length text in
  let p = pick (len + 1) in
  let splice lo hi ins = String.sub text 0 lo ^ ins ^ String.sub text hi (len - hi) in
  let byte () = String.make 1 edit_bytes.[pick2 (String.length edit_bytes)] in
  let lines () = Array.of_list (String.split_on_char '\n' text) in
  let join a = String.concat "\n" (Array.to_list a) in
  match (r lsr 60) land 7 with
  | 0 | 1 -> if p < len then splice p (p + 1) "" else text
  | 2 -> splice p p (byte ())
  | 3 -> if p < len then splice p (p + 1) (byte ()) else text
  | 4 -> splice p p edit_words.(pick2 (Array.length edit_words))
  | 5 ->
      let a = lines () in
      let k = pick (Array.length a) in
      join (Array.of_list (List.filteri (fun i _ -> i <> k) (Array.to_list a)))
  | 6 ->
      let a = lines () in
      let k = pick (Array.length a) in
      join (Array.concat [ Array.sub a 0 (k + 1); Array.sub a k (Array.length a - k) ])
  | _ ->
      let a = lines () in
      let i = pick (Array.length a) and j = pick2 (Array.length a) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t;
      join a

let mutation_digest () =
  let d = { h = 0xcbf29ce484222325L } and oks = ref 0 and s = ref 2024 in
  List.iter
    (fun base ->
      for _ = 1 to 1_000 do
        s := lcg_next !s;
        let res = Bench_format.parse_string ~library (mutate base !s) in
        if Result.is_ok res then incr oks;
        feed_result d res
      done)
    [ c17_bench; read_file "cla4.bench" ];
  (d.h, !oks)

let test_mutation_golden () =
  let h, oks = mutation_digest () in
  Printf.printf "2000 mutants: %d load, %d fail; digest %016Lx\n%!" oks (2000 - oks) h;
  Alcotest.(check string) "mutation digest" "343e852e0f90af8d" (Printf.sprintf "%016Lx" h)

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

(* ---- allocation: words per gate of one load ----------------------------------- *)

(* A layered [levels] x [width] .bench text, like a mapped netlist: each
   gate takes one fanin from the level below and the rest from any
   level, its operator drawn by [lcg_next] from NAND/NOR/AND/OR/NOT/BUFF
   of one to three inputs; the last level is the outputs. *)
let layered_text ~levels ~width =
  let b = Buffer.create (levels * width * 28) in
  let s = ref 7 in
  let draw k =
    s := lcg_next !s;
    (!s lsr 20) mod k
  in
  for i = 0 to width - 1 do Printf.bprintf b "INPUT(n0_%d)\n" i done;
  for i = 0 to width - 1 do Printf.bprintf b "OUTPUT(n%d_%d)\n" levels i done;
  let ops = [| ("NAND", 2); ("NAND", 3); ("NOR", 2); ("NOR", 3); ("AND", 2); ("OR", 2);
               ("NOT", 1); ("BUFF", 1) |] in
  for l = 1 to levels do
    for i = 0 to width - 1 do
      let op, arity = ops.(draw (Array.length ops)) in
      Printf.bprintf b "n%d_%d = %s(n%d_%d" l i op (l - 1) i;
      for _ = 2 to arity do Printf.bprintf b ", n%d_%d" (draw l) (draw width) done;
      Buffer.add_string b ")\n"
    done
  done;
  Buffer.contents b

(* Words [f] allocates, minor and major heap alike. *)
let allocated_words f =
  let m0 = Gc.minor_words () and _, p0, j0 = Gc.counters () in
  let r = f () in
  let m1 = Gc.minor_words () and _, p1, j1 = Gc.counters () in
  (r, m1 -. m0 +. (j1 -. j0) -. (p1 -. p0))

(* The loader builds what the netlist keeps (its flat CSR view, about
   20 words a gate here) plus the columns it reads the text into: 42.8
   words a gate on this file, where the loader that made a string per
   token took about 200.  Release only: the ceiling is for the
   optimised build. *)
let words_per_gate_ceiling = 60.

let test_load_words_per_gate () =
  if not (Release_profile.kernels_inlined ()) then Alcotest.skip ()
  else begin
    let text = layered_text ~levels:100 ~width:240 in
    ignore (load "layered" text);
    let net, words = allocated_words (fun () -> load "layered" text) in
    let per_gate = words /. float_of_int (Netlist.n_gates net) in
    Printf.printf "%d-gate layered load: %.0f words, %.1f words/gate (ceiling %.0f)\n%!"
      (Netlist.n_gates net) words per_gate words_per_gate_ceiling;
    Alcotest.(check int) "n_gates" 24_000 (Netlist.n_gates net);
    if per_gate > words_per_gate_ceiling then
      Alcotest.failf "load allocated %.1f words/gate (ceiling %.0f)" per_gate
        words_per_gate_ceiling
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
      ("golden", [ Alcotest.test_case "single-edit mutants" `Quick test_mutation_golden ]);
      ( "scale",
        [
          Alcotest.test_case "5k reverse chain equals in-order chain" `Quick
            test_reverse_chain_5k;
          Alcotest.test_case "10^6-gate reverse chain (release only)" `Slow
            test_reverse_chain_million;
          Alcotest.test_case "words per gate of a 24k-gate load (release only)" `Quick
            test_load_words_per_gate;
        ] );
    ]
