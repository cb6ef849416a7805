(* Tests for the circuit substrate: cells, sigma models, netlists, BLIF and
   generators. *)

open Circuit

let check_float ?(eps = 1e-12) msg expected actual =
  Alcotest.check (Alcotest.float eps) msg expected actual

(* ---- Cell ------------------------------------------------------------------ *)

let test_cell_make_defaults () =
  let c = Cell.make ~name:"x" ~n_inputs:2 () in
  check_float "t_int" 0.1 c.Cell.t_int;
  check_float "max" 3. c.Cell.max_size;
  Alcotest.(check int) "inputs" 2 c.Cell.n_inputs

let test_cell_validation () =
  Alcotest.check_raises "zero inputs"
    (Invalid_argument "Cell.make: n_inputs must be positive") (fun () ->
      ignore (Cell.make ~name:"x" ~n_inputs:0 ()));
  Alcotest.check_raises "bad limit"
    (Invalid_argument "Cell.make: max_size must be >= 1") (fun () ->
      ignore (Cell.make ~name:"x" ~n_inputs:1 ~max_size:0.5 ()))

let test_cell_delay_formula () =
  let c = Cell.make ~name:"x" ~n_inputs:1 ~t_int:0.2 ~drive:2. ()in
  check_float "delay S=1" (0.2 +. (2. *. 1.5)) (Cell.delay c ~size:1. ~load:1.5);
  check_float "delay S=3" (0.2 +. (2. *. 1.5 /. 3.)) (Cell.delay c ~size:3. ~load:1.5);
  Alcotest.check_raises "size below 1" (Invalid_argument "Cell.delay: size below 1")
    (fun () -> ignore (Cell.delay c ~size:0.5 ~load:1.))

let test_cell_delay_decreasing_in_size () =
  let c = Cell.nand 2 in
  let d1 = Cell.delay c ~size:1. ~load:2. in
  let d2 = Cell.delay c ~size:2. ~load:2. in
  let d3 = Cell.delay c ~size:3. ~load:2. in
  Alcotest.(check bool) "monotone" true (d1 > d2 && d2 > d3);
  Alcotest.(check bool) "floor at t_int" true (d3 > c.Cell.t_int)

let test_cell_input_cap_scales () =
  let c = Cell.nand 2 in
  check_float "cap scales linearly" (2. *. Cell.input_cap c ~size:1.)
    (Cell.input_cap c ~size:2.)

let test_library_lookup () =
  let lib = Cell.Library.default () in
  (match Cell.Library.find lib "nand2" with
  | Some c -> Alcotest.(check int) "nand2 inputs" 2 c.Cell.n_inputs
  | None -> Alcotest.fail "nand2 missing");
  Alcotest.(check bool) "unknown" true (Cell.Library.find lib "zzz" = None);
  Alcotest.check_raises "find_exn" (Invalid_argument
    "Cell.Library.find_exn: unknown cell zzz") (fun () ->
      ignore (Cell.Library.find_exn lib "zzz"))

let test_library_best_fit () =
  let lib = Cell.Library.default () in
  Alcotest.(check int) "fit 3" 3 (Cell.Library.best_fit lib ~n_inputs:3).Cell.n_inputs;
  Alcotest.(check int) "fit 1" 1 (Cell.Library.best_fit lib ~n_inputs:1).Cell.n_inputs;
  Alcotest.check_raises "fit 9"
    (Invalid_argument "Cell.Library.best_fit: no cell with enough inputs") (fun () ->
      ignore (Cell.Library.best_fit lib ~n_inputs:9))

let test_library_duplicate_rejected () =
  Alcotest.check_raises "dup" (Invalid_argument "Cell.Library.of_list: duplicate cell inv")
    (fun () ->
      ignore
        (Cell.Library.of_list
           [
             Cell.make ~name:"inv" ~n_inputs:1 ();
             Cell.make ~name:"inv" ~n_inputs:1 ();
           ]))

(* ---- Sigma model ------------------------------------------------------------ *)

let test_sigma_models () =
  check_float "zero" 0. (Sigma_model.sigma Sigma_model.Zero 5.);
  check_float "proportional" 1.25 (Sigma_model.sigma (Sigma_model.Proportional 0.25) 5.);
  check_float "affine" 0.6
    (Sigma_model.sigma (Sigma_model.Affine { base = 0.1; ratio = 0.1 }) 5.);
  check_float "constant" 0.3 (Sigma_model.sigma (Sigma_model.Constant 0.3) 5.);
  check_float "var" (1.25 *. 1.25)
    (Sigma_model.var (Sigma_model.Proportional 0.25) 5.)

let test_sigma_model_derivative_fd () =
  let models =
    [
      Sigma_model.Zero;
      Sigma_model.Proportional 0.25;
      Sigma_model.Affine { base = 0.2; ratio = 0.1 };
      Sigma_model.Constant 0.4;
    ]
  in
  List.iter
    (fun m ->
      List.iter
        (fun mu ->
          let h = 1e-6 in
          let fd = (Sigma_model.var m (mu +. h) -. Sigma_model.var m (mu -. h)) /. (2. *. h) in
          if not (Util.Numerics.approx_eq ~rtol:1e-6 ~atol:1e-9 fd (Sigma_model.dvar_dmu m mu))
          then
            Alcotest.failf "dvar_dmu mismatch for %s at mu=%g" (Sigma_model.to_string m) mu)
        [ 0.5; 2.; 10. ])
    models

(* ---- Netlist builder --------------------------------------------------------- *)

let nand2 = Cell.nand 2
let inv = Cell.make ~name:"inv" ~n_inputs:1 ~c_in:0.18 ()

let small_net () =
  let b = Netlist.Builder.create ~name:"small" () in
  let a = Netlist.Builder.add_pi b "a" in
  let c = Netlist.Builder.add_pi b "c" in
  let g0 = Netlist.Builder.add_gate b ~name:"g0" ~cell:nand2 [ a; c ] in
  let g1 = Netlist.Builder.add_gate b ~name:"g1" ~cell:inv [ g0 ] in
  Netlist.Builder.mark_po b g1;
  Netlist.Builder.build b

let test_builder_basic () =
  let n = small_net () in
  Alcotest.(check int) "gates" 2 (Netlist.n_gates n);
  Alcotest.(check int) "pis" 2 (Netlist.n_pis n);
  Alcotest.(check int) "pos" 1 (Netlist.n_pos n);
  Alcotest.(check string) "pi name" "a" (Netlist.pi_name n 0);
  Alcotest.(check string) "gate name" "g1" (Netlist.gate n 1).Netlist.gate_name

let test_builder_duplicate_pi () =
  let b = Netlist.Builder.create () in
  ignore (Netlist.Builder.add_pi b "a");
  Alcotest.check_raises "dup pi" (Invalid_argument "Netlist.Builder.add_pi: duplicate input a")
    (fun () -> ignore (Netlist.Builder.add_pi b "a"))

let test_builder_fanin_count_checked () =
  let b = Netlist.Builder.create () in
  let a = Netlist.Builder.add_pi b "a" in
  Alcotest.check_raises "wrong fanin"
    (Invalid_argument "Netlist.Builder.add_gate: cell nand2 expects 2 inputs, got 1")
    (fun () -> ignore (Netlist.Builder.add_gate b ~cell:nand2 [ a ]))

let test_builder_no_po_rejected () =
  let b = Netlist.Builder.create () in
  let a = Netlist.Builder.add_pi b "a" in
  ignore (Netlist.Builder.add_gate b ~cell:inv [ a ]);
  Alcotest.check_raises "no po"
    (Invalid_argument "Netlist.Builder.build: no primary output") (fun () ->
      ignore (Netlist.Builder.build b))

let test_builder_dangling_fanin_rejected () =
  let b = Netlist.Builder.create () in
  Alcotest.check_raises "dangling"
    (Invalid_argument "Netlist.Builder.add_gate: fanin node does not exist") (fun () ->
      ignore (Netlist.Builder.add_gate b ~cell:inv [ Netlist.Pi 5 ]))

let test_fanout_and_multiplicity () =
  let b = Netlist.Builder.create () in
  let a = Netlist.Builder.add_pi b "a" in
  let g0 = Netlist.Builder.add_gate b ~cell:inv [ a ] in
  (* g1 consumes g0 on both pins: multiplicity 2. *)
  let g1 = Netlist.Builder.add_gate b ~cell:nand2 [ g0; g0 ] in
  Netlist.Builder.mark_po b g1;
  let n = Netlist.Builder.build b in
  (match Netlist.fanout n 0 with
  | [ (1, 2) ] -> ()
  | other ->
      Alcotest.failf "unexpected fanout: %s"
        (String.concat ";" (List.map (fun (g, m) -> Printf.sprintf "(%d,%d)" g m) other)));
  Alcotest.(check (list (pair int int))) "sink fanout" [] (Netlist.fanout n 1)

let test_load_computation () =
  let n = small_net () in
  let sizes = [| 1.; 2. |] in
  (* g0 drives inv sized 2: load = wire (1.0) + 0.18*2 *)
  check_float "g0 load" (1.0 +. (0.18 *. 2.)) (Netlist.load n ~sizes 0);
  check_float "g1 load" 1.0 (Netlist.load n ~sizes 1)

let test_area_and_size_vectors () =
  let n = small_net () in
  check_float "area at min" 2. (Netlist.area n ~sizes:(Netlist.min_sizes n));
  let maxs = Netlist.max_sizes n in
  check_float "max size" 3. maxs.(0);
  Alcotest.check_raises "bad dim" (Invalid_argument "Netlist.check_sizes: dimension mismatch")
    (fun () -> Netlist.check_sizes n [| 1. |]);
  Alcotest.(check unit) "valid sizes ok" () (Netlist.check_sizes n [| 1.5; 2.9 |])

let test_check_sizes_bounds () =
  let n = small_net () in
  (try
     Netlist.check_sizes n [| 0.5; 1. |];
     Alcotest.fail "should reject size below 1"
   with Invalid_argument _ -> ());
  (try
     Netlist.check_sizes n [| 1.; 4. |];
     Alcotest.fail "should reject size above limit"
   with Invalid_argument _ -> ());
  (* The first offender reported is the lowest gate id, though the flat
     columns the check reads are in level-major order: g2 sits before g1
     there. *)
  let b = Netlist.Builder.create () in
  let a = Netlist.Builder.add_pi b "a" in
  let g0 = Netlist.Builder.add_gate b ~name:"g0" ~cell:inv [ a ] in
  let g1 = Netlist.Builder.add_gate b ~name:"g1" ~cell:inv [ g0 ] in
  let g2 = Netlist.Builder.add_gate b ~name:"g2" ~cell:inv [ a ] in
  Netlist.Builder.mark_po b g1;
  Netlist.Builder.mark_po b g2;
  let n = Netlist.Builder.build b in
  Alcotest.(check (array int)) "level-major ids" [| 0; 2; 1 |] (Netlist.flat n).Netlist.perm;
  let big = inv.Cell.max_size +. 1. in
  Alcotest.check_raises "first offender by id"
    (Invalid_argument
       (Printf.sprintf "Netlist.check_sizes: size %g of gate g1 outside [1, %g]" big
          inv.Cell.max_size))
    (fun () -> Netlist.check_sizes n [| 1.; big; big |]);
  Alcotest.check_raises "below the floor"
    (Invalid_argument
       (Printf.sprintf "Netlist.check_sizes: size 0.5 of gate g2 outside [1, %g]"
          inv.Cell.max_size))
    (fun () -> Netlist.check_sizes n [| 1.; 1.; 0.5 |])

(* Words allocated by [f], minor and major heap alike (large arrays go
   straight to the major heap).  The minor count comes from
   [Gc.minor_words], which counts the words still in the minor heap:
   [Gc.counters]' minor count leaves them out until the next minor
   collection, so a collection inside [f] would charge [f] with a whole
   minor heap it did not allocate. *)
let allocated_words f =
  let m0 = Gc.minor_words () and _, p0, j0 = Gc.counters () in
  let r = f () in
  let m1 = Gc.minor_words () and _, p1, j1 = Gc.counters () in
  (r, m1 -. m0 +. (j1 -. j0) -. (p1 -. p0))

(* A layered 10^4-gate .bench text: 100 inputs, 100 levels of 100
   two-input gates, each reading two nets of the level below. *)
let layered_bench_text () =
  let buf = Buffer.create (1 lsl 18) in
  let w = 100 in
  for i = 0 to w - 1 do
    Printf.bprintf buf "INPUT(n0_%d)\n" i
  done;
  for i = 0 to w - 1 do
    Printf.bprintf buf "OUTPUT(n%d_%d)\n" w i
  done;
  for l = 1 to w do
    for i = 0 to w - 1 do
      Printf.bprintf buf "n%d_%d = NAND(n%d_%d, n%d_%d)\n" l i (l - 1) i (l - 1)
        ((i + l) mod w)
    done
  done;
  Buffer.contents buf

(* The size check and the bound vector read the flat columns a .bench
   load already built: no record view per gate, so O(1) words beyond
   the returned vector itself. *)
let test_size_checks_read_flat_columns () =
  let text = layered_bench_text () in
  let load () =
    match Bench_format.parse_string ~library:(Cell.Library.default ()) text with
    | Ok n -> n
    | Error e -> Alcotest.failf "%s" (Format.asprintf "%a" Bench_format.pp_error e)
  in
  let n = load () in
  let g = Netlist.n_gates n in
  Alcotest.(check int) "gates" 10_000 g;
  let sizes = Netlist.min_sizes n in
  let (), w_check = allocated_words (fun () -> Netlist.check_sizes n sizes) in
  if w_check > 64. then
    Alcotest.failf "check_sizes allocated %.0f words on %d gates" w_check g;
  let n = load () in
  let maxs, w_max = allocated_words (fun () -> Netlist.max_sizes n) in
  if w_max > float_of_int g +. 64. then
    Alcotest.failf "max_sizes allocated %.0f words for a %d-float vector" w_max g;
  Alcotest.(check bool) "nand2 bounds" true
    (Array.for_all (fun m -> m = nand2.Cell.max_size) maxs);
  Alcotest.(check unit) "bounds accepted" () (Netlist.check_sizes n maxs)

(* [Netlist.area] sums the flat area column in gate-id order: the bits
   of a fold over the record view, in O(1) words a call, and a .bench
   load keeps its record view unbuilt. *)
let test_area_reads_flat_column () =
  let record_area net sizes =
    let acc = ref 0. in
    Array.iter
      (fun (g : Netlist.gate) -> acc := !acc +. (g.Netlist.cell.Cell.area *. sizes.(g.Netlist.id)))
      (Netlist.gates net);
    !acc
  in
  let check what net =
    let st = Random.State.make [| 11 |] in
    let sizes = Array.init (Netlist.n_gates net) (fun _ -> 1. +. Random.State.float st 2.) in
    ignore (Netlist.area net ~sizes);
    let a, words = allocated_words (fun () -> Netlist.area net ~sizes) in
    if words > 16. then Alcotest.failf "%s: area allocated %.0f words" what words;
    Alcotest.(check int64) (what ^ ": bits of a record fold")
      (Int64.bits_of_float (record_area net sizes)) (Int64.bits_of_float a)
  in
  let library =
    Cell.Library.of_list
      [ Cell.make ~name:"nand2" ~n_inputs:2 ~area:1.37 (); Cell.make ~name:"inv" ~n_inputs:1 () ]
  in
  let net =
    match Bench_format.parse_string ~library (layered_bench_text ()) with
    | Ok n -> n
    | Error e -> Alcotest.failf "%s" (Format.asprintf "%a" Bench_format.pp_error e)
  in
  let sizes = Netlist.min_sizes net in
  let _, words = allocated_words (fun () -> Netlist.area net ~sizes) in
  if words > 16. then Alcotest.failf ".bench load: first area call allocated %.0f words" words;
  check ".bench load" net;
  check "apex1*" (Generate.apex1_like ())

let test_levels_depth () =
  let n = small_net () in
  Alcotest.(check (array int)) "levels" [| 1; 2 |] (Netlist.levels n);
  Alcotest.(check int) "depth" 2 (Netlist.depth n);
  let s = Netlist.stats n in
  Alcotest.(check int) "stats depth" 2 s.Netlist.depth;
  Alcotest.(check int) "stats max fanout" 1 s.Netlist.max_fanout

(* ---- Generators ----------------------------------------------------------------- *)

let test_tree_structure () =
  let n = Generate.tree () in
  Alcotest.(check int) "7 gates" 7 (Netlist.n_gates n);
  Alcotest.(check int) "8 pis" 8 (Netlist.n_pis n);
  Alcotest.(check int) "1 po" 1 (Netlist.n_pos n);
  Alcotest.(check int) "depth 3" 3 (Netlist.depth n);
  let names =
    Array.to_list (Array.map (fun (g : Netlist.gate) -> g.Netlist.gate_name) (Netlist.gates n))
  in
  Alcotest.(check (list string)) "paper naming" [ "A"; "B"; "C"; "D"; "E"; "F"; "G" ] names;
  (* C consumes A and B; G consumes C and F. *)
  Alcotest.(check (list (pair int int))) "A feeds C" [ (2, 1) ] (Netlist.fanout n 0);
  Alcotest.(check (list (pair int int))) "C feeds G" [ (6, 1) ] (Netlist.fanout n 2)

let test_tree_levels_param () =
  let n = Generate.tree ~levels:4 () in
  Alcotest.(check int) "15 gates" 15 (Netlist.n_gates n);
  Alcotest.(check int) "16 pis" 16 (Netlist.n_pis n);
  Alcotest.(check int) "depth 4" 4 (Netlist.depth n)

let test_fig2_structure () =
  let n = Generate.example_fig2 () in
  Alcotest.(check int) "4 gates" 4 (Netlist.n_gates n);
  Alcotest.(check int) "3 pis" 3 (Netlist.n_pis n);
  Alcotest.(check int) "2 pos" 2 (Netlist.n_pos n);
  (* D has fanin A, B, C. *)
  let d = Netlist.gate n 3 in
  Alcotest.(check int) "D fanin" 3 (Array.length d.Netlist.fanin);
  (* A, B, C all drive D. *)
  List.iter
    (fun g -> Alcotest.(check (list (pair int int))) "drives D" [ (3, 1) ] (Netlist.fanout n g))
    [ 0; 1; 2 ]

let test_chain_structure () =
  let n = Generate.chain ~length:5 () in
  Alcotest.(check int) "5 gates" 5 (Netlist.n_gates n);
  Alcotest.(check int) "depth 5" 5 (Netlist.depth n);
  Alcotest.(check int) "1 po" 1 (Netlist.n_pos n)

let test_random_dag_counts () =
  let spec = { Generate.default_spec with Generate.n_gates = 150; seed = 3 } in
  let n = Generate.random_dag spec in
  Alcotest.(check int) "gate count exact" 150 (Netlist.n_gates n);
  Alcotest.(check int) "pi count" 20 (Netlist.n_pis n);
  Alcotest.(check int) "depth = target" 12 (Netlist.depth n);
  Alcotest.(check bool) "has pos" true (Netlist.n_pos n > 0)

let test_random_dag_deterministic () =
  let spec = { Generate.default_spec with Generate.n_gates = 80; seed = 5 } in
  let a = Generate.random_dag spec and b = Generate.random_dag spec in
  let sig_of n =
    Array.to_list
      (Array.map
         (fun (g : Netlist.gate) ->
           (g.Netlist.cell.Cell.name, Array.to_list (Array.map (function
             | Netlist.Pi i -> -i - 1
             | Netlist.Gate i -> i) g.Netlist.fanin)))
         (Netlist.gates n))
  in
  Alcotest.(check bool) "same structure" true (sig_of a = sig_of b)

let test_random_dag_all_gates_reach_po () =
  (* Every gate either has a consumer or is a PO: nothing dangles. *)
  let spec = { Generate.default_spec with Generate.n_gates = 120; seed = 9 } in
  let n = Generate.random_dag spec in
  let is_po = Array.make (Netlist.n_gates n) false in
  Array.iter
    (function Netlist.Gate g -> is_po.(g) <- true | Netlist.Pi _ -> ())
    (Netlist.pos n);
  Array.iter
    (fun (g : Netlist.gate) ->
      if Netlist.fanout n g.Netlist.id = [] && not is_po.(g.Netlist.id) then
        Alcotest.failf "gate %d dangles" g.Netlist.id)
    (Netlist.gates n)

let test_benchmark_standins () =
  let apex1 = Generate.apex1_like () in
  Alcotest.(check int) "apex1 cells" 982 (Netlist.n_gates apex1);
  let apex2 = Generate.apex2_like () in
  Alcotest.(check int) "apex2 cells" 117 (Netlist.n_gates apex2);
  Alcotest.(check int) "apex2 pis" 39 (Netlist.n_pis apex2)

let test_by_name () =
  Alcotest.(check bool) "tree" true (Generate.by_name "tree" <> None);
  Alcotest.(check bool) "unknown" true (Generate.by_name "nope" = None)

(* ---- BLIF ------------------------------------------------------------------------ *)

let sample_blif =
  {|# a comment
.model demo
.inputs a b \
 c
.outputs y
.gate nand2 i0=a i1=b O=n1
.gate inv i0=n1 O=n2   # trailing comment
.gate nand2 i0=n2 i1=c O=y
.end
|}

let test_blif_parse () =
  let lib = Cell.Library.default () in
  match Blif.parse_string ~library:lib sample_blif with
  | Error e -> Alcotest.failf "parse failed: %s" (Format.asprintf "%a" Blif.pp_error e)
  | Ok n ->
      Alcotest.(check string) "model name" "demo" (Netlist.name n);
      Alcotest.(check int) "gates" 3 (Netlist.n_gates n);
      Alcotest.(check int) "pis" 3 (Netlist.n_pis n);
      Alcotest.(check int) "pos" 1 (Netlist.n_pos n);
      Alcotest.(check int) "depth" 3 (Netlist.depth n)

let test_blif_out_of_order_gates () =
  (* Gates may appear before their fanins are defined. *)
  let text =
    ".model ooo\n.inputs a\n.outputs y\n.gate inv i0=n1 O=y\n.gate inv i0=a O=n1\n.end\n"
  in
  match Blif.parse_string ~library:(Cell.Library.default ()) text with
  | Error e -> Alcotest.failf "parse failed: %s" (Format.asprintf "%a" Blif.pp_error e)
  | Ok n -> Alcotest.(check int) "gates" 2 (Netlist.n_gates n)

let test_blif_errors () =
  let lib = Cell.Library.default () in
  let expect_error text pattern =
    match Blif.parse_string ~library:lib text with
    | Ok _ -> Alcotest.failf "expected failure for %s" pattern
    | Error e ->
        let msg = Format.asprintf "%a" Blif.pp_error e in
        let contains haystack needle =
          let nh = String.length haystack and nn = String.length needle in
          let rec scan i =
            i + nn <= nh && (String.sub haystack i nn = needle || scan (i + 1))
          in
          scan 0
        in
        if not (contains msg pattern) then
          Alcotest.failf "error %S does not mention %S" msg pattern
  in
  expect_error ".model m\n.inputs a\n.outputs y\n.gate zzz i0=a O=y\n.end\n" "unknown cell";
  expect_error ".model m\n.inputs a\n.outputs y\n.gate inv i0=q O=y\n.end\n" "undriven net";
  expect_error
    ".model m\n.inputs a\n.outputs y\n.gate inv i0=a O=y\n.gate inv i0=a O=y\n.end\n"
    "driven twice";
  expect_error ".model m\n.inputs a\n.outputs y\n.gate inv i0=a badpin O=y\n.end\n"
    "malformed pin";
  expect_error ".model m\n.inputs a\n.outputs y\n.unknown\n.end\n" "unsupported directive";
  expect_error
    ".model m\n.inputs a\n.outputs y\n.gate inv i0=n1 O=y\n.gate inv i0=y O=n1\n.end\n"
    "cycle"

let test_blif_roundtrip () =
  let lib =
    Cell.Library.of_list [ Cell.nand 2; Cell.nand 3; Cell.make ~name:"inv" ~n_inputs:1 () ]
  in
  let original = Generate.tree () in
  (* Tree uses its own tuned cell; serialise a library circuit instead. *)
  ignore original;
  let b = Netlist.Builder.create ~name:"rt" () in
  let a = Netlist.Builder.add_pi b "a" in
  let c = Netlist.Builder.add_pi b "c" in
  let g0 = Netlist.Builder.add_gate b ~cell:(Cell.Library.find_exn lib "nand2") [ a; c ] in
  let g1 = Netlist.Builder.add_gate b ~cell:(Cell.Library.find_exn lib "inv") [ g0 ] in
  let g2 =
    Netlist.Builder.add_gate b ~cell:(Cell.Library.find_exn lib "nand3") [ g0; g1; c ]
  in
  Netlist.Builder.mark_po b g2;
  let n = Netlist.Builder.build b in
  let text = Blif.to_string n in
  match Blif.parse_string ~library:lib text with
  | Error e -> Alcotest.failf "reparse failed: %s" (Format.asprintf "%a" Blif.pp_error e)
  | Ok n2 ->
      Alcotest.(check int) "gates" (Netlist.n_gates n) (Netlist.n_gates n2);
      Alcotest.(check int) "pis" (Netlist.n_pis n) (Netlist.n_pis n2);
      Alcotest.(check int) "pos" (Netlist.n_pos n) (Netlist.n_pos n2);
      Alcotest.(check int) "depth" (Netlist.depth n) (Netlist.depth n2);
      (* Cell assignment preserved per topological position. *)
      Array.iteri
        (fun i (g : Netlist.gate) ->
          Alcotest.(check string)
            (Printf.sprintf "cell %d" i)
            g.Netlist.cell.Cell.name
            (Netlist.gate n2 i).Netlist.cell.Cell.name)
        (Netlist.gates n)

let test_blif_file_io () =
  let lib = Cell.Library.default () in
  let path = Filename.temp_file "statsize" ".blif" in
  let oc = open_out path in
  output_string oc sample_blif;
  close_out oc;
  (match Blif.parse_file ~library:lib path with
  | Ok n -> Alcotest.(check int) "gates" 3 (Netlist.n_gates n)
  | Error e -> Alcotest.failf "parse_file: %s" (Format.asprintf "%a" Blif.pp_error e));
  Sys.remove path

(* examples/c17.blif is a test/dune dep; `dune runtest` runs from the
   stanza directory but `dune exec test/...` from the invocation one, so
   look the file up from either. *)
let c17_path () =
  match List.find_opt Sys.file_exists [ "../examples/c17.blif"; "examples/c17.blif" ] with
  | Some p -> p
  | None -> Alcotest.fail "examples/c17.blif not found (is it a test dep?)"

let test_blif_c17_roundtrip () =
  (* The shipped ISCAS c17 netlist survives file -> netlist -> text ->
     netlist with structure intact. *)
  let lib = Cell.Library.default () in
  match Blif.parse_file ~library:lib (c17_path ()) with
  | Error e -> Alcotest.failf "c17: %s" (Format.asprintf "%a" Blif.pp_error e)
  | Ok n -> (
      Alcotest.(check string) "model" "c17" (Netlist.name n);
      Alcotest.(check int) "gates" 6 (Netlist.n_gates n);
      Alcotest.(check int) "pis" 5 (Netlist.n_pis n);
      Alcotest.(check int) "pos" 2 (Netlist.n_pos n);
      Array.iter
        (fun (g : Netlist.gate) ->
          Alcotest.(check string) "all nand2" "nand2" g.Netlist.cell.Cell.name)
        (Netlist.gates n);
      match Blif.parse_string ~library:lib (Blif.to_string n) with
      | Error e ->
          Alcotest.failf "c17 reparse: %s" (Format.asprintf "%a" Blif.pp_error e)
      | Ok n2 ->
          Alcotest.(check int) "gates" (Netlist.n_gates n) (Netlist.n_gates n2);
          Alcotest.(check int) "pis" (Netlist.n_pis n) (Netlist.n_pis n2);
          Alcotest.(check int) "pos" (Netlist.n_pos n) (Netlist.n_pos n2);
          Alcotest.(check int) "depth" (Netlist.depth n) (Netlist.depth n2);
          (* Same timing, therefore the same circuit for the engines. *)
          let sizes = Netlist.min_sizes n in
          Alcotest.(check (float 1e-12))
            "same deterministic delay"
            (Sta.Dsta.analyze n ~sizes).Sta.Dsta.circuit
            (Sta.Dsta.analyze n2 ~sizes).Sta.Dsta.circuit)

let test_blif_truncated_inputs () =
  (* Cutting the file anywhere — mid-token, mid-continuation, before
     [.end] — must yield Ok (if the prefix happens to be well-formed) or
     a clean Error, never an escaping exception. *)
  let lib = Cell.Library.default () in
  let whole =
    match In_channel.with_open_text (c17_path ()) In_channel.input_all with
    | text -> text
    | exception Sys_error m -> Alcotest.failf "cannot read c17.blif: %s" m
  in
  let saw_error = ref false in
  for len = 0 to String.length whole - 1 do
    match Blif.parse_string ~library:lib (String.sub whole 0 len) with
    | Ok _ -> ()
    | Error e ->
        saw_error := true;
        let msg = Format.asprintf "%a" Blif.pp_error e in
        Alcotest.(check bool)
          (Printf.sprintf "prefix %d has a message" len)
          true
          (String.length msg > 0)
    | exception e ->
        Alcotest.failf "prefix %d escaped with %s" len (Printexc.to_string e)
  done;
  Alcotest.(check bool) "some prefixes are malformed" true !saw_error

let test_blif_parse_file_missing () =
  match Blif.parse_file ~library:(Cell.Library.default ()) "no/such/file.blif" with
  | Ok _ -> Alcotest.fail "expected an error"
  | Error e ->
      Alcotest.(check bool) "mentions the path" true
        (Format.asprintf "%a" Blif.pp_error e <> "")
  | exception e -> Alcotest.failf "escaped with %s" (Printexc.to_string e)

let prop_blif_roundtrip_random_dags =
  (* Any generated netlist survives serialise -> parse with its structure
     (counts, depth, per-position cells) intact. *)
  let gen =
    QCheck.Gen.(
      let* n_gates = int_range 5 60 in
      let* seed = int_range 0 10_000 in
      let* depth = int_range 2 8 in
      return (n_gates, seed, depth))
  in
  QCheck.Test.make ~name:"BLIF roundtrip preserves random DAG structure" ~count:40
    (QCheck.make gen) (fun (n_gates, seed, target_depth) ->
      let target_depth = min target_depth n_gates in
      let net =
        Generate.random_dag
          { Generate.default_spec with Generate.n_gates; seed; target_depth }
      in
      let lib = Cell.Library.default () in
      match Blif.parse_string ~library:lib (Blif.to_string net) with
      | Error _ -> false
      | Ok net2 ->
          (* the parser may reorder gates within a level, so compare the
             multiset of cells, not per-position *)
          let cell_multiset n =
            Array.to_list
              (Array.map (fun (g : Netlist.gate) -> g.Netlist.cell.Cell.name)
                 (Netlist.gates n))
            |> List.sort compare
          in
          Netlist.n_gates net2 = Netlist.n_gates net
          && Netlist.n_pis net2 = Netlist.n_pis net
          && Netlist.n_pos net2 = Netlist.n_pos net
          && Netlist.depth net2 = Netlist.depth net
          && cell_multiset net = cell_multiset net2)

(* ---- .bench format ----------------------------------------------------------------- *)

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

let test_bench_parse_c17 () =
  match Bench_format.parse_string ~library:(Cell.Library.default ()) c17_bench with
  | Error e -> Alcotest.failf "parse: %s" (Format.asprintf "%a" Bench_format.pp_error e)
  | Ok n ->
      Alcotest.(check int) "gates" 6 (Netlist.n_gates n);
      Alcotest.(check int) "pis" 5 (Netlist.n_pis n);
      Alcotest.(check int) "pos" 2 (Netlist.n_pos n);
      Alcotest.(check int) "depth" 3 (Netlist.depth n)

let test_bench_out_of_order () =
  let text = "INPUT(a)\nOUTPUT(y)\ny = NOT(m)\nm = NOT(a)\n" in
  match Bench_format.parse_string ~library:(Cell.Library.default ()) text with
  | Error e -> Alcotest.failf "parse: %s" (Format.asprintf "%a" Bench_format.pp_error e)
  | Ok n -> Alcotest.(check int) "gates" 2 (Netlist.n_gates n)

let test_bench_wide_gate_decomposition () =
  (* NAND of 6 inputs with only 2-4 input nands available: decomposes into
     an AND tree plus a nand root, preserving depth bounds. *)
  let text =
    "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nINPUT(e)\nINPUT(f)\nOUTPUT(y)\n\
     y = NAND(a, b, c, d, e, f)\n"
  in
  match Bench_format.parse_string ~library:(Cell.Library.default ()) text with
  | Error e -> Alcotest.failf "parse: %s" (Format.asprintf "%a" Bench_format.pp_error e)
  | Ok n ->
      Alcotest.(check bool) "several gates" true (Netlist.n_gates n >= 3);
      Alcotest.(check int) "one po" 1 (Netlist.n_pos n);
      (* every PI reaches the output cone *)
      Alcotest.(check int) "pis" 6 (Netlist.n_pis n)

let test_bench_dff_cut () =
  let text = "INPUT(a)\nOUTPUT(y)\nq = DFF(m)\nm = NOT(a)\ny = NAND(q, a)\n" in
  match Bench_format.parse_string ~library:(Cell.Library.default ()) text with
  | Error e -> Alcotest.failf "parse: %s" (Format.asprintf "%a" Bench_format.pp_error e)
  | Ok n ->
      (* a + pseudo-input for the flop output *)
      Alcotest.(check int) "pis" 2 (Netlist.n_pis n);
      (* y + pseudo-output for the flop data input *)
      Alcotest.(check int) "pos" 2 (Netlist.n_pos n);
      Alcotest.(check int) "gates" 2 (Netlist.n_gates n)

let test_bench_errors () =
  let lib = Cell.Library.default () in
  let expect text =
    match Bench_format.parse_string ~library:lib text with
    | Ok _ -> Alcotest.failf "expected failure for %S" text
    | Error _ -> ()
  in
  expect "INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n";
  expect "INPUT(a)\nOUTPUT(y)\ny = NOT(zz)\n";
  expect "INPUT(a)\nOUTPUT(y)\ny = NOT(a\n";
  expect "INPUT(a)\nINPUT(a)\nOUTPUT(y)\ny = NOT(a)\n";
  expect "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = NOT(a)\n";
  (* cycle *)
  expect "INPUT(a)\nOUTPUT(y)\ny = NAND(a, z)\nz = NOT(y)\n"

(* Every elaboration failure names the statement at fault. *)
let test_bench_positioned_errors () =
  let lib = Cell.Library.default () in
  let expect ?(library = lib) what text line needle =
    match Bench_format.parse_string ~library text with
    | Ok _ -> Alcotest.failf "%s: expected an error" what
    | Error e ->
        Alcotest.(check int) (what ^ ": line") line e.Bench_format.line;
        let m = e.Bench_format.message in
        let found = ref false in
        for i = 0 to String.length m - String.length needle do
          if String.sub m i (String.length needle) = needle then found := true
        done;
        if not !found then Alcotest.failf "%s: %S does not mention %S" what m needle
  in
  expect "driven twice" "INPUT(a)\nOUTPUT(x)\nx = NOT(a)\nx = BUFF(a)\n" 4
    "driven twice: x";
  expect "assignment onto an input" "INPUT(a)\nOUTPUT(a)\na = NOT(a)\n" 3
    "driven twice: a";
  expect "undriven net" "INPUT(a)\nOUTPUT(y)\nw = NOT(a)\ny = NOT(zz)\nv = NOT(zz)\n" 4
    "undriven net zz";
  expect "cycle" "INPUT(a)\nOUTPUT(y)\nb = NOT(a)\ny = NAND(a, z)\nz = NOT(y)\n" 4
    "cycle";
  (* w waits on the cycle without lying on it. *)
  expect "cycle behind a reader"
    "INPUT(a)\nOUTPUT(w)\nw = NOT(y)\nz = NOT(y)\ny = NAND(a, z)\n" 4 "cycle";
  expect "self loop" "INPUT(a)\nOUTPUT(x)\n\nx = AND(a, x)\n" 4 "cycle through net x";
  expect "output not driven" "INPUT(a)\nx = NOT(a)\nOUTPUT(x)\nOUTPUT(zz)\n" 4
    "output zz is not driven";
  expect "flip-flop data not driven" "INPUT(a)\nOUTPUT(a)\nq = DFF(zz)\n" 3
    "output zz is not driven";
  expect "DFF arity" "INPUT(a)\nINPUT(b)\nOUTPUT(q)\nq = DFF(a, b)\n" 4
    "DFF takes one input";
  expect "duplicate INPUT" "INPUT(a)\nOUTPUT(a)\n# again\nINPUT(a)\n" 4
    "duplicate INPUT a";
  expect "pseudo-input clash" "INPUT(q_ff)\nOUTPUT(q)\nq = DFF(q_ff)\n" 3 "clashes";
  expect "unsupported operator" "INPUT(a)\nOUTPUT(y)\n\ny = FROB(a)\n" 4
    "unsupported operator FROB";
  expect "no output" "INPUT(a)\nx = NOT(a)\n# done\n\n" 2 "no primary output";
  expect
    ~library:(Cell.Library.of_list [ Cell.make ~name:"inv" ~n_inputs:1 () ])
    "missing cell" "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nx = NOT(a)\n\ny = XOR(x, b)\n" 6
    "library has no cell xor2";
  expect "text after the call" "INPUT(a)\nOUTPUT(y)\ny = NOT(a) junk(\n" 3
    "unexpected text \"junk(\"";
  expect "extra closing paren" "INPUT(a)\nOUTPUT(y)\n\ny = NOT(a))\n" 4
    "unexpected text \")\"";
  (* Goldens: the whole [{line; message}] of every failure the loader
     can report, once per raising site, keywords in any case. *)
  let exact ?(library = lib) ?wire_load what text line message =
    match Bench_format.parse_string ?wire_load ~library text with
    | Ok _ -> Alcotest.failf "%s: expected an error" what
    | Error e ->
        Alcotest.(check (pair int string))
          what (line, message)
          (e.Bench_format.line, e.Bench_format.message)
  in
  exact "no call" "INPUT(a)\nOUTPUT(y)\ny = NOT a\n" 3 "expected a call, got \"NOT a\"";
  exact "directive without a call" "INPUT(a)\n  OUTPUT y \n" 2
    "expected a call, got \"OUTPUT y\"";
  exact "unclosed call" "INPUT(a)\nOUTPUT(y)\ny = NOT(a\n" 3
    "unbalanced parentheses in \"NOT(a\"";
  exact "nested call" "INPUT(a)\nOUTPUT(y)\ny = AND(a, NOT(a))\n" 3
    "unbalanced parentheses in \"AND(a, NOT(a))\"";
  exact "trailing text" "INPUT(a)\nOUTPUT(y)\ny =  NOT ( a )  junk(\n" 3
    "unexpected text \"junk(\" after \"NOT ( a )\"";
  exact "driven twice" "INPUT(a)\nOUTPUT(x)\nx = NOT(a)\n x  = BUFF(a)\n" 4
    "net driven twice: x";
  exact "duplicate INPUT" "input(a)\nOUTPUT(a)\nInput( a )\n" 3 "duplicate INPUT a";
  exact "missing target" "INPUT(a)\nOUTPUT(y)\n  = NOT(a)\n" 3 "missing assignment target";
  exact "DFF arity" "INPUT(a)\nOUTPUT(a)\nq = dff(a, a)\n" 3 "DFF takes one input";
  exact "DFF without input" "INPUT(a)\nOUTPUT(a)\nq = DFF( )\n" 3 "DFF takes one input";
  exact "no inputs" "INPUT(a)\nOUTPUT(y)\ny = Nand( , )\n" 3 "NAND with no inputs";
  exact "BUF with no inputs" "INPUT(a)\nOUTPUT(y)\ny = buf()\n" 3 "BUF with no inputs";
  exact "unsupported operator" "INPUT(a)\nOUTPUT(y)\ny = frob(a, a)\n" 3
    "unsupported operator FROB with 2 inputs";
  exact "one-input NAND" "INPUT(a)\nOUTPUT(y)\ny = NAND(a)\n" 3
    "unsupported operator NAND with 1 inputs";
  exact "two-input NOT" "INPUT(a)\nOUTPUT(y)\ny = not(a, a)\n" 3
    "unsupported operator NOT with 2 inputs";
  exact "spaced operator" "INPUT(a)\nOUTPUT(y)\ny = N AND(a, a)\n" 3
    "unsupported operator N AND with 2 inputs";
  exact "INPUT arity" "INPUT(a, b)\nOUTPUT(a)\n" 1 "INPUT/OUTPUT take one argument";
  exact "OUTPUT without argument" "INPUT(a)\noutput( )\n" 2 "INPUT/OUTPUT take one argument";
  exact "unknown directive" "INPUT(a)\nOUTPUT(a)\nwire(a)\n" 3 "unknown directive WIRE";
  exact "undriven net" "INPUT(a)\nOUTPUT(y)\ny = AND(a, b c)\n" 3 "undriven net b c";
  exact "output not driven" "INPUT(a)\nOUTPUT(zz)\nOUTPUT(a)\n" 2 "output zz is not driven";
  exact "flip-flop data not driven" "INPUT(a)\nOUTPUT(a)\nq = DFF(zz)\n" 3
    "output zz is not driven";
  exact "no output" "INPUT(a)\nx = NOT(a)\n# done\n\n" 2
    "no OUTPUT or DFF: the circuit has no primary output";
  exact "empty text" "" 1 "no OUTPUT or DFF: the circuit has no primary output";
  exact "pseudo-input clash" "INPUT(q_ff)\nOUTPUT(q)\nq = DFF(q_ff)\n" 3
    "flip-flop pseudo-input q_ff clashes with INPUT q_ff";
  exact "cycle" "INPUT(a)\nOUTPUT(y)\nb = NOT(a)\ny = NAND(a, z)\nz = NOT(y)\n" 4
    "combinational cycle through net y";
  exact
    ~library:(Cell.Library.of_list [ Cell.make ~name:"inv" ~n_inputs:1 () ])
    "missing cell" "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nx = NOT(a)\n\ny = XOR(x, b)\n" 6
    "library has no cell xor2";
  exact
    ~library:(Cell.Library.of_list [ Cell.make ~name:"nand2" ~n_inputs:3 () ])
    "mis-sized cell" "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n" 4
    "library cell nand2 takes 3 inputs, not 2";
  exact ~wire_load:(-1.) "negative wire load" "INPUT(a)\nOUTPUT(a)\n" 0 "negative wire load";
  match Bench_format.parse_file ~library:lib "no/such/circuit.bench" with
  | Ok _ -> Alcotest.fail "missing file: expected an error"
  | Error e ->
      Alcotest.(check (pair int string))
        "missing file" (0, "no/such/circuit.bench: No such file or directory")
        (e.Bench_format.line, e.Bench_format.message)

(* ---- cell library files -------------------------------------------------------------- *)

let test_cell_file_parse () =
  let text =
    "# lib\ncell inv inputs=1 t_int=0.05 c_in=0.15\ncell nand2 inputs=2 drive=1.1 \
     limit=4 area=1.2\n"
  in
  match Cell_file.parse_string text with
  | Error e -> Alcotest.failf "parse: %s" (Format.asprintf "%a" Cell_file.pp_error e)
  | Ok lib ->
      let inv = Cell.Library.find_exn lib "inv" in
      check_float "t_int" 0.05 inv.Cell.t_int;
      check_float "c_in" 0.15 inv.Cell.c_in;
      check_float "default drive" 1. inv.Cell.drive;
      let nand2 = Cell.Library.find_exn lib "nand2" in
      check_float "limit" 4. nand2.Cell.max_size;
      check_float "area" 1.2 nand2.Cell.area

let test_cell_file_roundtrip () =
  let lib = Cell.Library.default () in
  match Cell_file.parse_string (Cell_file.to_string lib) with
  | Error e -> Alcotest.failf "reparse: %s" (Format.asprintf "%a" Cell_file.pp_error e)
  | Ok lib2 ->
      List.iter
        (fun (c : Cell.t) ->
          let c2 = Cell.Library.find_exn lib2 c.Cell.name in
          check_float (c.Cell.name ^ " t_int") c.Cell.t_int c2.Cell.t_int;
          check_float (c.Cell.name ^ " c_in") c.Cell.c_in c2.Cell.c_in;
          Alcotest.(check int) (c.Cell.name ^ " inputs") c.Cell.n_inputs c2.Cell.n_inputs)
        (Cell.Library.cells lib)

let test_cell_file_errors () =
  let expect text pattern =
    match Cell_file.parse_string text with
    | Ok _ -> Alcotest.failf "expected failure for %S" text
    | Error e ->
        let msg = Format.asprintf "%a" Cell_file.pp_error e in
        let contains haystack needle =
          let nh = String.length haystack and nn = String.length needle in
          let rec scan i =
            i + nn <= nh && (String.sub haystack i nn = needle || scan (i + 1))
          in
          scan 0
        in
        if not (contains msg pattern) then
          Alcotest.failf "error %S does not mention %S" msg pattern
  in
  expect "cell x inputs=0\n" "positive integer";
  expect "cell x inputs=2 t_int=abc\n" "not a number";
  expect "cell x inputs=2 bogus=1\n" "unknown field";
  expect "gate x inputs=2\n" "unknown directive";
  expect "cell x inputs=2\ncell x inputs=2\n" "duplicate";
  expect "cell x\n" "missing inputs"

(* Mirrors the BLIF hardening: file-level failures surface as the same
   clean Error the syntax path produces, never an escaping Sys_error. *)
let test_cell_file_parse_file_robust () =
  (match Cell_file.parse_file "no/such/library.cells" with
  | Ok _ -> Alcotest.fail "expected an error for a missing file"
  | Error e ->
      Alcotest.(check bool) "has a message" true
        (Format.asprintf "%a" Cell_file.pp_error e <> "")
  | exception e -> Alcotest.failf "missing file escaped with %s" (Printexc.to_string e));
  match Cell_file.parse_file "." with
  | Ok _ -> Alcotest.fail "expected an error for a directory"
  | Error _ -> ()
  | exception e -> Alcotest.failf "directory escaped with %s" (Printexc.to_string e)

(* Through both of the loader's names ([Bench_stream] is an alias):
   file-level failures come back as [Error], never as an escaping
   [Sys_error]. *)
let test_bench_parse_file_robust () =
  let lib = Cell.Library.default () in
  List.iter
    (fun (loader, parse_file) ->
      (match parse_file ~library:lib "no/such/circuit.bench" with
      | Ok _ -> Alcotest.failf "%s: expected an error for a missing file" loader
      | Error e ->
          Alcotest.(check bool) (loader ^ ": has a message") true
            (Format.asprintf "%a" Bench_format.pp_error e <> "")
      | exception e ->
          Alcotest.failf "%s: missing file escaped with %s" loader (Printexc.to_string e));
      match parse_file ~library:lib "." with
      | Ok _ -> Alcotest.failf "%s: expected an error for a directory" loader
      | Error _ -> ()
      | exception e ->
          Alcotest.failf "%s: directory escaped with %s" loader (Printexc.to_string e))
    [
      ("Bench_format", fun ~library p -> Bench_format.parse_file ~library p);
      ("Bench_stream", fun ~library p -> Bench_stream.parse_file ~library p);
    ]

let test_bench_truncated_prefixes () =
  (* Every prefix of a valid .bench text parses to Ok or a clean Error,
     never an escaping exception (the truncated-input hardening). *)
  let lib = Cell.Library.default () in
  let whole =
    "# c17-ish\nINPUT(G1)\nINPUT(G2)\nINPUT(G3)\nOUTPUT(G22)\n\
     G10 = NAND(G1, G3)\nG11 = NAND(G3, G2)\nG22 = NAND(G10, G11)\n"
  in
  let saw_error = ref false in
  for len = 0 to String.length whole - 1 do
    match Bench_format.parse_string ~library:lib (String.sub whole 0 len) with
    | Ok _ -> ()
    | Error e ->
        if e.Bench_format.line < 1 then
          Alcotest.failf "prefix %d: error without a line: %s" len e.Bench_format.message;
        saw_error := true
    | exception e ->
        Alcotest.failf "prefix %d escaped with %s" len (Printexc.to_string e)
  done;
  Alcotest.(check bool) "some prefixes are malformed" true !saw_error

let test_cell_file_truncated_prefixes () =
  let whole = "# lib\ncell inv inputs=1 t_int=0.05 c_in=0.15\ncell nand2 inputs=2 area=1.2\n" in
  let saw_error = ref false in
  for len = 0 to String.length whole - 1 do
    match Cell_file.parse_string (String.sub whole 0 len) with
    | Ok _ -> ()
    | Error _ -> saw_error := true
    | exception e ->
        Alcotest.failf "prefix %d escaped with %s" len (Printexc.to_string e)
  done;
  Alcotest.(check bool) "some prefixes are malformed" true !saw_error

let () =
  Alcotest.run "circuit"
    [
      ( "cell",
        [
          Alcotest.test_case "defaults" `Quick test_cell_make_defaults;
          Alcotest.test_case "validation" `Quick test_cell_validation;
          Alcotest.test_case "delay formula" `Quick test_cell_delay_formula;
          Alcotest.test_case "delay monotone" `Quick test_cell_delay_decreasing_in_size;
          Alcotest.test_case "input cap" `Quick test_cell_input_cap_scales;
          Alcotest.test_case "library lookup" `Quick test_library_lookup;
          Alcotest.test_case "library best fit" `Quick test_library_best_fit;
          Alcotest.test_case "library duplicates" `Quick test_library_duplicate_rejected;
        ] );
      ( "sigma_model",
        [
          Alcotest.test_case "values" `Quick test_sigma_models;
          Alcotest.test_case "derivative vs FD" `Quick test_sigma_model_derivative_fd;
        ] );
      ( "netlist",
        [
          Alcotest.test_case "builder basic" `Quick test_builder_basic;
          Alcotest.test_case "duplicate pi" `Quick test_builder_duplicate_pi;
          Alcotest.test_case "fanin count" `Quick test_builder_fanin_count_checked;
          Alcotest.test_case "no po" `Quick test_builder_no_po_rejected;
          Alcotest.test_case "dangling fanin" `Quick test_builder_dangling_fanin_rejected;
          Alcotest.test_case "fanout multiplicity" `Quick test_fanout_and_multiplicity;
          Alcotest.test_case "load" `Quick test_load_computation;
          Alcotest.test_case "area / size vectors" `Quick test_area_and_size_vectors;
          Alcotest.test_case "size bounds" `Quick test_check_sizes_bounds;
          Alcotest.test_case "size checks read the flat columns" `Quick
            test_size_checks_read_flat_columns;
          Alcotest.test_case "area reads the flat column" `Quick test_area_reads_flat_column;
          Alcotest.test_case "levels / depth" `Quick test_levels_depth;
        ] );
      ( "generate",
        [
          Alcotest.test_case "tree" `Quick test_tree_structure;
          Alcotest.test_case "tree levels" `Quick test_tree_levels_param;
          Alcotest.test_case "fig2" `Quick test_fig2_structure;
          Alcotest.test_case "chain" `Quick test_chain_structure;
          Alcotest.test_case "random dag counts" `Quick test_random_dag_counts;
          Alcotest.test_case "random dag deterministic" `Quick test_random_dag_deterministic;
          Alcotest.test_case "nothing dangles" `Quick test_random_dag_all_gates_reach_po;
          Alcotest.test_case "benchmark stand-ins" `Quick test_benchmark_standins;
          Alcotest.test_case "by_name" `Quick test_by_name;
        ] );
      ( "blif",
        [
          Alcotest.test_case "parse" `Quick test_blif_parse;
          Alcotest.test_case "out-of-order gates" `Quick test_blif_out_of_order_gates;
          Alcotest.test_case "errors" `Quick test_blif_errors;
          Alcotest.test_case "roundtrip" `Quick test_blif_roundtrip;
          Alcotest.test_case "file io" `Quick test_blif_file_io;
          Alcotest.test_case "c17 roundtrip" `Quick test_blif_c17_roundtrip;
          Alcotest.test_case "truncated inputs fail cleanly" `Quick
            test_blif_truncated_inputs;
          Alcotest.test_case "missing file is a clean error" `Quick
            test_blif_parse_file_missing;
          Seed_info.to_alcotest prop_blif_roundtrip_random_dags;
        ] );
      ( "bench_format",
        [
          Alcotest.test_case "c17" `Quick test_bench_parse_c17;
          Alcotest.test_case "out of order" `Quick test_bench_out_of_order;
          Alcotest.test_case "wide gate decomposition" `Quick
            test_bench_wide_gate_decomposition;
          Alcotest.test_case "dff cut" `Quick test_bench_dff_cut;
          Alcotest.test_case "errors" `Quick test_bench_errors;
          Alcotest.test_case "positioned errors" `Quick test_bench_positioned_errors;
          Alcotest.test_case "parse_file robustness" `Quick test_bench_parse_file_robust;
          Alcotest.test_case "truncated prefixes" `Quick test_bench_truncated_prefixes;
        ] );
      ( "cell_file",
        [
          Alcotest.test_case "parse" `Quick test_cell_file_parse;
          Alcotest.test_case "roundtrip" `Quick test_cell_file_roundtrip;
          Alcotest.test_case "errors" `Quick test_cell_file_errors;
          Alcotest.test_case "parse_file robustness" `Quick test_cell_file_parse_file_robust;
          Alcotest.test_case "truncated prefixes" `Quick test_cell_file_truncated_prefixes;
        ] );
    ]
