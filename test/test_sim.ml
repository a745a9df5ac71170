(* Pipeline simulator tests: stalls, multiple issue, delay slots, cache,
   tracing. *)

let check = Alcotest.check

let toyp = lazy (Toyp.load ())

let compile model strat src = Marion.compile model strat ~file:"<t.c>" src

let run ?config model strat src = Marion.run ?config (compile model strat src)

let test_basic_execution () =
  let m = Lazy.force toyp in
  let r = run m Strategy.Postpass "int main(void) { return 6 * 7; }" in
  check Alcotest.int "6*7" 42 r.Sim.return_value

let test_output_builtins () =
  let m = Lazy.force toyp in
  let r =
    run m Strategy.Postpass
      {|int main(void) {
          print_int(12);
          print_char('x');
          print_char(10);
          print_double(2.5);
          return 0;
        }|}
  in
  check Alcotest.string "output" "12\nx\n2.500000\n" r.Sim.output

let test_load_latency_stalls () =
  (* a dependent use of a load must wait for the load latency; cycles grow
     accordingly when no scheduling hides it *)
  let m = Lazy.force toyp in
  let naive = run m Strategy.Naive "int g; int main(void) { return g + 1; }" in
  check Alcotest.bool "some stall cycles" true
    (naive.Sim.cycles > naive.Sim.instructions)

let test_scheduling_reduces_cycles () =
  let m = Lazy.force toyp in
  let src =
    {|double a[32]; double b[32];
      int main(void) {
        int i; double s = 0.0; double t = 0.0;
        for (i = 0; i < 32; i++) { a[i] = (double)i; b[i] = (double)(i * 2); }
        for (i = 0; i < 32; i++) { s = s + a[i]; t = t + b[i]; }
        return (int)(s + t);
      }|}
  in
  let naive = run m Strategy.Naive src in
  let sched = run m Strategy.Postpass src in
  check Alcotest.int "same answer" naive.Sim.return_value sched.Sim.return_value;
  check Alcotest.bool "scheduling reduces cycles" true
    (sched.Sim.cycles < naive.Sim.cycles)

let test_i860_dual_issue () =
  let m = I860.load () in
  let src =
    {|double x; double y; double r1; double r2;
      int main(void) {
        int i; int s = 0;
        r1 = x * y;
        for (i = 0; i < 4; i++) s += i;
        r2 = x + y;
        return s;
      }|}
  in
  let config = { Sim.default_config with Sim.trace_limit = 200 } in
  let r = run ~config m Strategy.Postpass src in
  let by_cycle = Hashtbl.create 32 in
  List.iter
    (fun (cy, _) ->
      Hashtbl.replace by_cycle cy
        (1 + Option.value ~default:0 (Hashtbl.find_opt by_cycle cy)))
    r.Sim.trace;
  let dual = Hashtbl.fold (fun _ n acc -> if n > 1 then acc + 1 else acc) by_cycle 0 in
  check Alcotest.bool "some cycles issue two instructions" true (dual > 0)

let test_cache_model () =
  let m = Lazy.force toyp in
  let src =
    {|double v[512];
      int main(void) {
        int i; double s = 0.0;
        for (i = 0; i < 512; i++) v[i] = (double)i;
        for (i = 0; i < 512; i++) s = s + v[i];
        return (int)s % 1000;
      }|}
  in
  let cold =
    run
      ~config:
        {
          Sim.default_config with
          Sim.cache = Some { Sim.lines = 16; line_bytes = 16; miss_penalty = 10 };
        }
      m Strategy.Postpass src
  in
  let warm = run m Strategy.Postpass src in
  check Alcotest.int "same answer with cache" warm.Sim.return_value
    cold.Sim.return_value;
  check Alcotest.bool "misses counted" true (cold.Sim.cache_misses > 0);
  check Alcotest.bool "misses cost cycles" true (cold.Sim.cycles > warm.Sim.cycles)

let test_block_frequencies () =
  let m = Lazy.force toyp in
  let r =
    run m Strategy.Postpass
      "int main(void) { int i; int s=0; for(i=0;i<7;i++) s+=i; return s; }"
  in
  (* some block (the loop body) executed exactly 7 times *)
  let has7 = Hashtbl.fold (fun _ n acc -> acc || n = 7) r.Sim.block_freq false in
  check Alcotest.bool "loop body counted 7 times" true has7

let test_nested_calls () =
  let m = Lazy.force toyp in
  let r =
    run m Strategy.Postpass
      {|int dbl(int x) { return x + x; }
        int quad(int x) { return dbl(dbl(x)); }
        int main(void) { return quad(5); }|}
  in
  check Alcotest.int "nested calls" 20 r.Sim.return_value

let test_recursion_deep () =
  let m = Lazy.force toyp in
  let r =
    run m Strategy.Postpass
      {|int sum(int n) { if (n == 0) return 0; return n + sum(n - 1); }
        int main(void) { return sum(100); }|}
  in
  check Alcotest.int "sum 1..100" 5050 r.Sim.return_value

let test_sim_error_on_bad_memory () =
  let m = Lazy.force toyp in
  match
    run m Strategy.Postpass
      {|int main(void) { int *p = (int *)(-64); return *p; }|}
  with
  | _ -> Alcotest.fail "expected a simulation error"
  | exception Sim.Sim_error _ -> ()

let test_estimated_cycles_close () =
  (* without a cache, the scheduler's estimate and the simulator agree
     closely: they implement the same hazard model *)
  let m = R2000.load () in
  let src = Livermore.source ~iter:1 12 in
  let compiled = compile m Strategy.Postpass src in
  let sim = Marion.run compiled in
  let est = Marion.estimated_cycles compiled sim in
  let ratio = float_of_int sim.Sim.cycles /. est in
  check Alcotest.bool
    (Printf.sprintf "ratio %.3f within 0.9..1.2" ratio)
    true
    (ratio > 0.9 && ratio < 1.2)

(* The data cache probes the address a load used. Probing a recomputed
   address went wrong when the load overwrote its own base register: the
   "address" was then loaded data, which crashed the cache lookup on toyp
   and m88000 Livermore kernels. *)
let table4_cache = Some { Sim.lines = 128; line_bytes = 32; miss_penalty = 8 }

let test_cache_matches_interpreter () =
  List.iter
    (fun (tname, model) ->
      let src = Livermore.source 2 in
      let oracle = Marion.interpret ~file:"lfk2" src in
      List.iter
        (fun strat ->
          let r =
            run
              ~config:{ Sim.default_config with Sim.cache = table4_cache }
              (Lazy.force model) strat src
          in
          let cell = Printf.sprintf "%s/%s" tname (Strategy.to_string strat) in
          check Alcotest.string (cell ^ " output") oracle.Cinterp.output
            r.Sim.output;
          check Alcotest.int (cell ^ " exit") oracle.Cinterp.return_value
            r.Sim.return_value;
          check Alcotest.bool (cell ^ " misses counted") true
            (r.Sim.cache_misses > 0))
        Strategy.all)
    [ ("toyp", toyp); ("m88000", lazy (M88000.load ())) ]

let test_cache_load_overwrites_base () =
  (* r4 = &g; lw r4, 0(r4) loads a negative value into its own base; a
     second load of g must then hit the line the first one brought in *)
  let m = R2000.load () in
  let op name =
    match Model.instrs_by_name m name with
    | i :: _ -> i
    | [] -> Alcotest.failf "r2000 has no %s" name
  in
  let r idx =
    match Model.find_class m "r" with
    | Some c -> Mir.Ophys { Model.cls = c.Model.c_id; idx }
    | None -> Alcotest.fail "r2000 has no class r"
  in
  let fn = Mir.new_func m "main" in
  let i name ops = Mir.mk_inst fn (op name) ops in
  let b = Mir.new_block "main" in
  b.Mir.b_insts <-
    [
      i "la" [| r 4; Mir.Osym ("g", 0) |];
      i "lw" [| r 4; r 4; Mir.Oimm 0 |];
      i "la" [| r 5; Mir.Osym ("g", 0) |];
      i "lw" [| r 3; r 5; Mir.Oimm 0 |];
      i "addu" [| r 2; r 4; r 3 |];
      i "jr" [| r 31 |];
    ];
  fn.Mir.f_blocks <- [ b ];
  let g = Bytes.create 4 in
  Bytes.set_int32_le g 0 (-1_000_000l);
  let prog =
    {
      Mir.p_model = m;
      p_globals = [ { Mir.g_name = "g"; g_align = 4; g_bytes = g } ];
      p_funcs = [ fn ];
    }
  in
  let res =
    Sim.run ~config:{ Sim.default_config with Sim.cache = table4_cache } prog
  in
  check Alcotest.int "both loaded values" (-2_000_000) res.Sim.return_value;
  check Alcotest.int "two loads" 2 res.Sim.loads;
  check Alcotest.int "one miss: the second load hits g's line" 1
    res.Sim.cache_misses

(* ------------------------------------------------------------------ *)
(* Golden digests of every [Sim.result] field over the Table 4 matrix
   (Livermore 1-14 x 4 targets x Postpass/IPS/RASE, data cache off), so a
   change to the simulator's internals is checkably bit-identical. Besides
   the counters and the output, the blob pins [block_freq] both sorted and
   in [Hashtbl.fold] order (the order [Marion.estimated_cycles] sums in),
   the estimate to the last bit, and the first 64 trace entries. The
   digests were captured before the simulator was restructured; never
   regenerate them to paper over a difference. *)

let golden_targets =
  [
    ("toyp", toyp);
    ("r2000", lazy (R2000.load ()));
    ("m88000", lazy (M88000.load ()));
    ("i860", lazy (I860.load ()));
  ]

let golden_strategies = [ Strategy.Postpass; Strategy.Ips; Strategy.Rase ]

let result_blob model strat =
  let buf = Buffer.create (1 lsl 14) in
  let add fmt = Printf.bprintf buf fmt in
  let config = { Sim.default_config with Sim.trace_limit = 64 } in
  for id = 1 to 14 do
    add "== lfk%d\n" id;
    match compile model strat (Livermore.source id) with
    | exception e -> add "compile-error:%s\n" (Printexc.to_string e)
    | compiled -> (
        match Marion.run ~config compiled with
        | exception Sim.Sim_error m -> add "simerr:%s\n" m
        | r ->
            add "cycles=%d insts=%d ret=%d loads=%d misses=%d out=%s\n"
              r.Sim.cycles r.Sim.instructions r.Sim.return_value r.Sim.loads
              r.Sim.cache_misses
              (String.escaped r.Sim.output);
            let folded =
              Hashtbl.fold (fun l n acc -> (l, n) :: acc) r.Sim.block_freq []
            in
            List.iter (fun (l, n) -> add "sorted:%s=%d\n" l n)
              (List.sort compare folded);
            List.iter (fun (l, n) -> add "fold:%s=%d\n" l n) folded;
            add "estimate=%h\n" (Marion.estimated_cycles compiled r);
            List.iter (fun (c, s) -> add "trace:%d %s\n" c s) r.Sim.trace)
  done;
  Buffer.contents buf

let result_goldens =
  [
    (("toyp", "postpass"), "ae0d51e9b0dbb11ccd9dfccd1db3f184");
    (("toyp", "ips"), "d4df95cf84f5885cdc1ea3e5d6f655dd");
    (("toyp", "rase"), "0fe966adc2c472e028ebe36da76c73d2");
    (("r2000", "postpass"), "80e9e4aa455818b310ba07eb3b18fcc5");
    (("r2000", "ips"), "88562e7875496384d7fd18ce0a7fb367");
    (("r2000", "rase"), "f0ce47e5ee163924e8eba912ec168d8a");
    (("m88000", "postpass"), "79b31cee86602e84cef100531803d97e");
    (("m88000", "ips"), "6a4d378875ba6fc62f94efb3cca63d2a");
    (("m88000", "rase"), "75358c7c107e46dabe12e1286a557ed7");
    (("i860", "postpass"), "c679e101ea0f6331c376ef4efe98bb4d");
    (("i860", "ips"), "c71f5a941260f99a5708681eb494f97c");
    (("i860", "rase"), "f31f0f840eba8d2c79bb0fc0521118e8");
  ]

let test_result_goldens () =
  let cells =
    List.concat_map
      (fun (tname, model) ->
        List.map
          (fun strat ->
            let key = (tname, Strategy.to_string strat) in
            let blob = result_blob (Lazy.force model) strat in
            (key, Digest.to_hex (Digest.string blob)))
          golden_strategies)
      golden_targets
  in
  let show l =
    List.map (fun ((t, s), d) -> Printf.sprintf "%s/%s %s" t s d) l
  in
  check
    Alcotest.(list string)
    "Sim.result digests" (show result_goldens) (show cells)

let suite =
  [
    Alcotest.test_case "basic execution" `Quick test_basic_execution;
    Alcotest.test_case "output builtins" `Quick test_output_builtins;
    Alcotest.test_case "load latency stalls" `Quick test_load_latency_stalls;
    Alcotest.test_case "scheduling reduces cycles" `Quick
      test_scheduling_reduces_cycles;
    Alcotest.test_case "i860 dual issue visible" `Quick test_i860_dual_issue;
    Alcotest.test_case "cache model" `Quick test_cache_model;
    Alcotest.test_case "block frequencies" `Quick test_block_frequencies;
    Alcotest.test_case "nested calls" `Quick test_nested_calls;
    Alcotest.test_case "deep recursion" `Quick test_recursion_deep;
    Alcotest.test_case "bad memory traps" `Quick test_sim_error_on_bad_memory;
    Alcotest.test_case "estimate matches simulation" `Quick
      test_estimated_cycles_close;
    Alcotest.test_case "cache on: lfk2 matches the interpreter" `Quick
      test_cache_matches_interpreter;
    Alcotest.test_case "cache probes the address the load used" `Quick
      test_cache_load_overwrites_base;
    Alcotest.test_case "Sim.result goldens (Table 4 matrix)" `Slow
      test_result_goldens;
  ]
