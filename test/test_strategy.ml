(* Strategy tests: the four code generation strategies produce correct
   code with the expected relative compile costs and code quality. *)

let check = Alcotest.check

let r2000 = lazy (R2000.load ())

let pressure_src =
  {|double x[64]; double y[64]; double z[64];
    int main(void) {
      int i; double s = 0.0;
      for (i = 0; i < 64; i++) { x[i] = (double)i * 0.5; y[i] = (double)i * 0.25; }
      for (i = 0; i < 64; i++) z[i] = x[i] * y[i] + x[i] + y[i] * 2.0 + 1.5;
      for (i = 0; i < 64; i++) s = s + z[i];
      print_double(s);
      return 0;
    }|}

let run_strategy strat =
  let m = Lazy.force r2000 in
  Marion.compile_and_run m strat ~file:"<p.c>" pressure_src

let test_all_strategies_correct () =
  let oracle = Marion.interpret ~file:"<p.c>" pressure_src in
  List.iter
    (fun strat ->
      let r = run_strategy strat in
      check Alcotest.string
        (Strategy.to_string strat ^ " output")
        oracle.Cinterp.output r.Marion.sim.Sim.output)
    Strategy.all

let test_quality_ordering () =
  (* scheduled strategies beat the local-only baseline; IPS/RASE at least
     match Postpass on this FP-heavy code *)
  let cycles strat = (run_strategy strat).Marion.sim.Sim.cycles in
  let n = cycles Strategy.Naive in
  let p = cycles Strategy.Postpass in
  let i = cycles Strategy.Ips in
  let r = cycles Strategy.Rase in
  check Alcotest.bool "postpass beats naive" true (p < n);
  check Alcotest.bool "ips at least matches postpass" true (i <= p);
  check Alcotest.bool "rase at least matches postpass" true (r <= p)

let test_schedule_pass_counts () =
  (* paper 2: Postpass schedules once, IPS twice, RASE many times *)
  let report strat = (run_strategy strat).Marion.compiled.Marion.report in
  let p = (report Strategy.Postpass).Strategy.schedule_passes in
  let i = (report Strategy.Ips).Strategy.schedule_passes in
  let r = (report Strategy.Rase).Strategy.schedule_passes in
  check Alcotest.bool "ips schedules more than postpass" true (i > p);
  check Alcotest.bool "rase schedules much more than ips" true (r > i)

let test_estimates_populated () =
  let r = run_strategy Strategy.Postpass in
  check Alcotest.bool "block estimates recorded" true
    (Hashtbl.length r.Marion.compiled.Marion.report.Strategy.block_estimates > 0)

let test_naive_is_local_only () =
  (* the naive baseline spills every cross-block value *)
  let r = run_strategy Strategy.Naive in
  check Alcotest.bool "naive spills globals" true
    (r.Marion.compiled.Marion.report.Strategy.spilled > 0)

let test_strategy_names () =
  List.iter
    (fun s ->
      check Alcotest.bool "round trip" true
        (Strategy.of_string (Strategy.to_string s) = Some s))
    Strategy.all;
  check Alcotest.bool "unknown" true (Strategy.of_string "wombat" = None)

(* the RASE sweep schedules each block only up to the first budget that
   never binds; recomputing every budget from scratch with the plain
   estimator must give the same totals and the same chosen budget *)
let test_rase_sweep_matches_full_sweep () =
  let targets =
    [
      ("toyp", Toyp.load ()); ("r2000", Lazy.force r2000);
      ("m88000", M88000.load ()); ("i860", I860.load ());
    ]
  in
  let sweep = List.hd (Strategy.pipeline Strategy.Rase) in
  check Alcotest.string "first RASE pass" "rase-sweep" sweep.Pass.name;
  List.iter
    (fun (tname, model) ->
      let budgets = Strategy.max_budget model in
      List.iter
        (fun (k : Livermore.kernel) ->
          let file = Printf.sprintf "lfk%d" k.Livermore.k_id in
          match
            Select.select_prog model
              (Cgen.compile ~file (k.Livermore.k_source 1))
          with
          | exception Select.No_pattern _ -> ()
          | prog ->
              List.iter
                (fun (fn : Mir.func) ->
                  let cell = Printf.sprintf "%s %s %s" tname file fn.Mir.f_name in
                  let full =
                    Array.init budgets (fun i ->
                        let options =
                          {
                            Listsched.default_options with
                            fill_delay = false;
                            reg_limit = Listsched.Fixed (i + 1);
                          }
                        in
                        List.fold_left
                          (fun acc (_, len) -> acc + len)
                          0
                          (Listsched.estimate_func ~options fn))
                  in
                  let best = ref 1 in
                  Array.iteri
                    (fun i c -> if c < full.(!best - 1) then best := i + 1)
                    full;
                  let cost, runs = Strategy.rase_costs fn in
                  check Alcotest.(array int) (cell ^ " totals") full cost;
                  check Alcotest.bool (cell ^ " runs") true
                    (runs <= budgets * List.length fn.Mir.f_blocks);
                  let st = Pass.run_pipeline [ sweep ] fn in
                  check Alcotest.(option int) (cell ^ " budget") (Some !best)
                    st.Pass.reg_budget;
                  check Alcotest.int (cell ^ " passes") runs
                    st.Pass.sched_passes)
                prog.Mir.p_funcs)
        Livermore.kernels)
    targets

let suite =
  [
    Alcotest.test_case "all strategies correct" `Quick test_all_strategies_correct;
    Alcotest.test_case "quality ordering" `Quick test_quality_ordering;
    Alcotest.test_case "schedule pass counts" `Quick test_schedule_pass_counts;
    Alcotest.test_case "estimates populated" `Quick test_estimates_populated;
    Alcotest.test_case "naive spills globals" `Quick test_naive_is_local_only;
    Alcotest.test_case "strategy names" `Quick test_strategy_names;
    Alcotest.test_case "RASE sweep == full per-budget sweep" `Quick
      test_rase_sweep_matches_full_sweep;
  ]
