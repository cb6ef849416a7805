(* Release-profile canary shared by the release-gated tests: computed
   float arguments to an in-place kernel allocate at every call unless
   the call was inlined (the dev profile compiles with -opaque, which
   suppresses cross-library inlining; release inlines and the sweeps run
   allocation-free). *)

let kernels_inlined () =
  let out = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout 2 in
  Bigarray.Array1.fill out 0.;
  let x = Sys.opaque_identity 0.5 in
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    Statdelay.Clark.add_into ~mu_a:(x +. 0.5) ~var_a:(x *. 0.2) ~mu_b:(x +. 1.5)
      ~var_b:(x *. 0.4) out 0
  done;
  ignore
    (Sys.opaque_identity (Statdelay.Clark.vget out 0 +. Statdelay.Clark.vget out 1));
  Gc.minor_words () -. w0 < 64.
