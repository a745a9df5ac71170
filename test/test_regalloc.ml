(* Register allocation tests: coloring soundness, pair aliasing, spilling,
   coalescing, callee-save bookkeeping. *)

let check = Alcotest.check

let toyp = lazy (Toyp.load ())

let compile_alloc ?forbid_global_pregs model src =
  let prog = Select.select_prog model (Cgen.compile ~file:"<t.c>" src) in
  let stats =
    List.map (fun fn -> Regalloc.allocate ?forbid_global_pregs fn)
      prog.Mir.p_funcs
  in
  (prog, stats)

let all_insts (fn : Mir.func) =
  List.concat_map (fun (b : Mir.block) -> b.Mir.b_insts) fn.Mir.f_blocks

(* no pseudo-register survives allocation *)
let assert_all_physical (fn : Mir.func) =
  List.iter
    (fun (i : Mir.inst) ->
      Array.iter
        (fun o ->
          let rec go = function
            | Mir.Opreg _ -> Alcotest.fail "pseudo-register survived allocation"
            | Mir.Opart (inner, _) -> go inner
            | Mir.Ophys _ | Mir.Oimm _ | Mir.Oslot _ | Mir.Osym _ | Mir.Olab _
              -> ()
          in
          go o)
        i.Mir.n_ops)
    (all_insts fn)

(* soundness oracle: walk each block with a backward liveness over physical
   registers and confirm no live value is clobbered by an unrelated def.
   Rather than re-deriving liveness, run the program and compare outputs —
   the differential tests in Test_e2e do that; here we check structure. *)

let test_allocation_completes () =
  let m = Lazy.force toyp in
  let prog, stats =
    compile_alloc m
      {|int main(void) {
          int a=1; int b=2; int c=3; int d=4; int e=5; int f=6; int g=7;
          return a+b+c+d+e+f+g;
        }|}
  in
  List.iter assert_all_physical prog.Mir.p_funcs;
  List.iter
    (fun (s : Regalloc.stats) ->
      check Alcotest.bool "rounds >= 1" true (s.Regalloc.rounds >= 1))
    stats

let test_spilling_under_pressure () =
  (* TOYP has five allocable integer registers; twelve simultaneously live
     values must spill *)
  let m = Lazy.force toyp in
  let src =
    {|int main(void) {
        int a=1; int b=2; int c=3; int d=4; int e=5; int f=6;
        int g=7; int h=8; int i=9; int j=10; int k=11; int l=12;
        int x = a+b+c+d+e+f+g+h+i+j+k+l;
        int y = a*b + c*d + e*f + g*h + i*j + k*l;
        return x + y;
      }|}
  in
  let prog, stats = compile_alloc m src in
  List.iter assert_all_physical prog.Mir.p_funcs;
  let total = List.fold_left (fun acc s -> acc + s.Regalloc.spilled) 0 stats in
  check Alcotest.bool "some values spilled" true (total > 0);
  (* and the code still works (fill delay slots: this path skips the
     scheduler) *)
  List.iter
    (fun fn ->
      Delay.fill_func fn;
      Frame.layout fn)
    prog.Mir.p_funcs;
  let r = Sim.run prog in
  let o = Cinterp.run_source ~file:"<t.c>" src in
  check Alcotest.int "spilled code computes correctly" o.Cinterp.return_value
    r.Sim.return_value

let test_pair_aliasing_respected () =
  (* doubles overlap integer registers on TOYP (%equiv): after allocation,
     no instruction may read a register whose bytes were reused for a
     simultaneously-live double — checked end to end by execution *)
  let m = Lazy.force toyp in
  let src =
    {|double acc; int main(void) {
        int i; double s = 0.0;
        for (i = 0; i < 8; i++) s = s + (double)i * 0.5;
        acc = s;
        return (int)s + i;
      }|}
  in
  let prog, _ = compile_alloc m src in
  List.iter
    (fun fn ->
      Delay.fill_func fn;
      Frame.layout fn)
    prog.Mir.p_funcs;
  let r = Sim.run prog in
  let o = Cinterp.run_source ~file:"<t.c>" src in
  check Alcotest.int "pairs respected" o.Cinterp.return_value r.Sim.return_value

let test_identity_moves_coalesced () =
  let m = Lazy.force toyp in
  let prog, _ = compile_alloc m "int f(int a) { int b = a; return b; }" in
  let fn = List.find (fun (f : Mir.func) -> f.Mir.f_name = "f") prog.Mir.p_funcs in
  (* parameter arrives in r2 which is also the result register: everything
     coalesces away, leaving only control flow *)
  let moves =
    List.filter
      (fun (i : Mir.inst) ->
        i.Mir.n_op.Model.i_move
        &&
        match (i.Mir.n_ops.(0), i.Mir.n_ops.(1)) with
        | Mir.Ophys a, Mir.Ophys b -> Model.reg_equal a b
        | _ -> false)
      (all_insts fn)
  in
  check Alcotest.int "no identity moves" 0 (List.length moves)

let test_callee_save_recorded () =
  let m = Lazy.force toyp in
  (* a value live across a call must land in a callee-save register, which
     the function then saves *)
  let src =
    {|int id(int x) { return x; }
      int main(void) { int a = 5; int b = id(7); return a + b; }|}
  in
  let prog, _ = compile_alloc m src in
  let main = List.find (fun (f : Mir.func) -> f.Mir.f_name = "main") prog.Mir.p_funcs in
  check Alcotest.bool "main saves a callee-save register" true
    (main.Mir.f_saved <> [])

let test_forbid_globals_spills () =
  let m = Lazy.force toyp in
  let src =
    {|int main(void) {
        int i; int s = 0;
        for (i = 0; i < 10; i++) s = s + i;
        return s;
      }|}
  in
  let _, stats = compile_alloc ~forbid_global_pregs:true m src in
  let total = List.fold_left (fun acc s -> acc + s.Regalloc.spilled) 0 stats in
  check Alcotest.bool "cross-block values went to memory" true (total >= 2)

let test_liveness_loop_depth () =
  let m = Lazy.force toyp in
  let prog =
    Select.select_prog m
      (Cgen.compile ~file:"<t.c>"
         {|int main(void) {
             int i; int j; int s = 0;
             for (i = 0; i < 3; i++)
               for (j = 0; j < 3; j++)
                 s += i * j;
             return s;
           }|})
  in
  let fn = List.hd prog.Mir.p_funcs in
  let depth = Regalloc.loop_depth fn in
  let max_depth = Hashtbl.fold (fun _ d acc -> max d acc) depth 0 in
  check Alcotest.bool "nested loops detected" true (max_depth >= 2)

let test_liveness_basic () =
  let m = Lazy.force toyp in
  let prog =
    Select.select_prog m
      (Cgen.compile ~file:"<t.c>"
         "int main(void) { int a = 3; int b = a + 1; return a + b; }")
  in
  let fn = List.hd prog.Mir.p_funcs in
  let live = Liveness.compute fn in
  (* the entry block's live-out must be non-empty: a and b flow onward if
     blocks split, or at minimum the return-address seed is present *)
  let entry = List.hd fn.Mir.f_blocks in
  let out = Liveness.live_out live entry.Mir.b_label in
  check Alcotest.bool "live-out non-empty" false (Bitset.is_empty out)

(* the spill-pick path: Livermore kernel 8 on TOYP spills even with the
   whole register file. Allocation must converge ([allocate] raises when
   it does not, or when its self-check finds overlapping colors), leave
   no pseudo-register behind, and the spilled code must still compute
   what the reference interpreter does. *)
let test_spill_lfk8 () =
  let m = Lazy.force toyp in
  let src = Livermore.source 8 in
  let oracle = Marion.interpret ~file:"lfk8" src in
  let prog, stats = compile_alloc m src in
  List.iter assert_all_physical prog.Mir.p_funcs;
  check Alcotest.bool "lfk8 spills" true
    (List.exists (fun (s : Regalloc.stats) -> s.Regalloc.spilled > 0) stats);
  List.iter
    (fun fn ->
      Delay.fill_func fn;
      Frame.layout fn)
    prog.Mir.p_funcs;
  let r = Sim.run prog in
  check Alcotest.string "lfk8 output" oracle.Cinterp.output r.Sim.output;
  check Alcotest.int "lfk8 exit" oracle.Cinterp.return_value
    r.Sim.return_value

let models = lazy [ Toyp.load (); R2000.load (); M88000.load (); I860.load () ]

(* a loop that never exits: its blocks reach no exit, yet x and y are
   live around it, so liveness must still give them live sets. Every
   target and strategy must compile it with the checker and the
   validators on and find nothing to report. *)
let test_loop_without_exit () =
  let src =
    {|int main(void) {
        int x = 1; int y = 2;
        for (;;) { print_int(x); x = x + y; y = y + 1; }
        return 0;
      }|}
  in
  List.iter
    (fun model ->
      List.iter
        (fun strat ->
          let tag =
            Printf.sprintf "%s/%s" model.Model.name (Strategy.to_string strat)
          in
          match Marion.compile model strat ~file:"<loop.c>" src with
          | exception Diag.Check_error ds ->
              Alcotest.failf "%s: %s" tag
                (String.concat "; " (List.map Diag.to_string ds))
          | c ->
              check Alcotest.int (tag ^ " no V-diags") 0
                (List.length c.Marion.report.Strategy.validate_diags))
        Strategy.all)
    (Lazy.force models)

(* the two halves of a double copy can be scheduled apart before
   allocation; the value written by the first half stays live across
   whatever lands between them. Kernel 9 under IPS on r2000 and m88000
   has such a split pair. *)
let test_split_half_moves () =
  let src = Livermore.source 9 in
  let oracle = Marion.interpret ~file:"lfk9" src in
  List.iter
    (fun model ->
      let c = Marion.compile model Strategy.Ips ~file:"lfk9" src in
      let r = Marion.run c in
      check Alcotest.string
        (model.Model.name ^ " ips lfk9 output")
        oracle.Cinterp.output r.Sim.output)
    [ R2000.load (); M88000.load () ]

let suite =
  [
    Alcotest.test_case "allocation completes, no pregs left" `Quick
      test_allocation_completes;
    Alcotest.test_case "spilling under pressure" `Quick test_spilling_under_pressure;
    Alcotest.test_case "register pair aliasing respected" `Quick
      test_pair_aliasing_respected;
    Alcotest.test_case "identity moves coalesced" `Quick test_identity_moves_coalesced;
    Alcotest.test_case "callee-save registers recorded" `Quick
      test_callee_save_recorded;
    Alcotest.test_case "local-only baseline spills globals" `Quick
      test_forbid_globals_spills;
    Alcotest.test_case "loop depth detection" `Quick test_liveness_loop_depth;
    Alcotest.test_case "liveness basics" `Quick test_liveness_basic;
    Alcotest.test_case "lfk8 spills at the full register file" `Quick
      test_spill_lfk8;
    Alcotest.test_case "loop without exit compiles everywhere" `Quick
      test_loop_without_exit;
    Alcotest.test_case "split half-moves keep their double live" `Quick
      test_split_half_moves;
  ]
