open Statdelay

type grid_row = {
  dmu : float;
  sigma_ratio : float;
  mu_err : float;
  sigma_err : float;
}

type circuit_row = {
  circuit_name : string;
  analytic_mu : float;
  analytic_sigma : float;
  mc_mu : float;
  mc_sigma : float;
}

type shape_row = {
  shape_name : string;
  shape_mc_mu : float;
  shape_mc_sigma : float;
}

type result = {
  grid : grid_row list;
  circuits : circuit_row list;
  shapes : shape_row list;
  shape_reference : circuit_row;
}

let run ?pool ?(model = Circuit.Sigma_model.paper_default) ?(samples = 200_000)
    ?(seed = 11) () =
  let rng = Util.Rng.create seed in
  let grid =
    List.concat_map
      (fun dmu ->
        List.map
          (fun sigma_ratio ->
            let a = Normal.make ~mu:0. ~sigma:1. in
            let b = Normal.make ~mu:dmu ~sigma:sigma_ratio in
            let cmp = Mc.compare_max2 rng a b ~n:samples in
            { dmu; sigma_ratio; mu_err = cmp.Mc.mu_abs_err; sigma_err = cmp.Mc.sigma_abs_err })
          [ 0.5; 1.; 2. ])
      [ 0.; 0.5; 1.; 2.; 4. ]
  in
  (* Circuit-level comparisons run on the batched oracle: same per-gate
     moments as the analytic engine, exact max/+ propagation of sampled
     delays.  The seed is offset per circuit so rows are independent. *)
  let circuit_samples = max 2 (samples / 4) in
  let circuit idx net =
    let sizes = Circuit.Netlist.min_sizes net in
    let res = Sta.Ssta.analyze ~model net ~sizes in
    let mc =
      Sta.Mcsta.sample ?pool ~model ~seed:(seed + (97 * (idx + 1))) net ~sizes
        ~n:circuit_samples
    in
    let st = Util.Stats.of_array mc in
    {
      circuit_name = Circuit.Netlist.name net;
      analytic_mu = Normal.mu res.Sta.Ssta.circuit;
      analytic_sigma = Normal.sigma res.Sta.Ssta.circuit;
      mc_mu = Util.Stats.mean st;
      mc_sigma = Util.Stats.std_dev st;
    }
  in
  (* F-SHAPE: same circuit, same per-gate moments, different element
     distribution families, selected by the oracle's [shape] argument. *)
  let shape_net = Circuit.Generate.tree () in
  let shape_sizes = Circuit.Netlist.min_sizes shape_net in
  let shape_samples = max 2 (samples / 4) in
  let shapes =
    List.map
      (fun (shape_name, shape) ->
        let mc =
          Sta.Mcsta.sample ?pool ~model ~seed:(seed + 1) ~shape shape_net
            ~sizes:shape_sizes ~n:shape_samples
        in
        let st = Util.Stats.of_array mc in
        {
          shape_name;
          shape_mc_mu = Util.Stats.mean st;
          shape_mc_sigma = Util.Stats.std_dev st;
        })
      [
        ("gaussian", Sta.Yield.Gaussian);
        ("uniform", Sta.Yield.Uniform);
        ("shifted exponential", Sta.Yield.Shifted_exponential);
        ("two-point", Sta.Yield.Two_point);
      ]
  in
  {
    grid;
    circuits =
      List.mapi circuit
        [
          Circuit.Generate.tree ();
          Circuit.Generate.chain ~length:30 ();
          Circuit.Generate.apex2_like ();
          Circuit.Generate.apex1_like ();
        ];
    shapes;
    shape_reference = circuit 0 shape_net;
  }

let print r =
  Printf.printf "# analytic max vs Monte Carlo (operands N(0,1) and N(dmu, ratio^2))\n";
  let t =
    Util.Table.create ~header:[ "dmu"; "sigma ratio"; "|mu err|"; "|sigma err|" ]
  in
  for i = 0 to 3 do
    Util.Table.set_align t i Util.Table.Right
  done;
  List.iter
    (fun g ->
      Util.Table.add_row t
        [
          Printf.sprintf "%.1f" g.dmu;
          Printf.sprintf "%.1f" g.sigma_ratio;
          Printf.sprintf "%.4f" g.mu_err;
          Printf.sprintf "%.4f" g.sigma_err;
        ])
    r.grid;
  Util.Table.print t;
  Printf.printf "\n# circuit-level SSTA vs batched MC oracle (unsized circuits)\n";
  let t2 =
    Util.Table.create
      ~header:[ "circuit"; "SSTA mu"; "SSTA sigma"; "MC mu"; "MC sigma" ]
  in
  for i = 1 to 4 do
    Util.Table.set_align t2 i Util.Table.Right
  done;
  List.iter
    (fun c ->
      Util.Table.add_row t2
        [
          c.circuit_name;
          Printf.sprintf "%.3f" c.analytic_mu;
          Printf.sprintf "%.4f" c.analytic_sigma;
          Printf.sprintf "%.3f" c.mc_mu;
          Printf.sprintf "%.4f" c.mc_sigma;
        ])
    r.circuits;
  Util.Table.print t2;
  Printf.printf
    "\n# F-SHAPE: element-distribution shape (tree, per-gate moments fixed)\n";
  Printf.printf "SSTA (normal model): mu %.3f sigma %.4f\n" r.shape_reference.analytic_mu
    r.shape_reference.analytic_sigma;
  let t3 =
    Util.Table.create ~header:[ "gate-delay shape"; "MC mu"; "MC sigma" ]
  in
  for i = 1 to 2 do
    Util.Table.set_align t3 i Util.Table.Right
  done;
  List.iter
    (fun s ->
      Util.Table.add_row t3
        [
          s.shape_name;
          Printf.sprintf "%.3f" s.shape_mc_mu;
          Printf.sprintf "%.4f" s.shape_mc_sigma;
        ])
    r.shapes;
  Util.Table.print t3;
  Printf.printf
    "(Section 3's claim: only the element moments matter for the circuit-level\n\
     distribution - the families above share moments but differ wildly in shape)\n\n"
