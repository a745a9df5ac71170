(* The dataflow-analysis layer: soundness of memory disambiguation
   (pruning never un-orders accesses that can really collide), end-to-end
   bit-identity of simulated behaviour with disambiguation on and off
   across the full target x strategy matrix, and the seeded A001/A002
   liveness diagnostics at their phase. *)

let check = Alcotest.check

let toyp = lazy (Toyp.load ())

let models = lazy [ Toyp.load (); R2000.load (); M88000.load (); I860.load () ]

let instr m name = List.hd (Model.instrs_by_name m name)

let rreg m i =
  let c = Option.get (Model.find_class m "r") in
  Mir.Ophys { Model.cls = c.Model.c_id; idx = i }

(* ---------------- pruning soundness (QCheck) ---------------- *)

(* one block: two symbol bases materialized by [la], then a random mix of
   loads and stores at stride-8 offsets off either base. Ground truth is
   known by construction: two accesses can collide exactly when they use
   the same base register and the same offset (stride 8 exceeds any
   access size here), so every such pair with a store in it must stay
   ordered in the oracle-built DAG. *)
let gen_disambig_block =
  QCheck2.Gen.make_primitive
    ~gen:(fun st ->
      let open QCheck2.Gen in
      let m = Lazy.force toyp in
      let fn = Mir.new_func m "p" in
      let base i = 6 + (i mod 2) in
      let prelude =
        [
          Mir.mk_inst fn (instr m "la") [| rreg m 6; Mir.Osym ("a", 0) |];
          Mir.mk_inst fn (instr m "la") [| rreg m 7; Mir.Osym ("b", 0) |];
        ]
      in
      let n = 4 + generate1 ~rand:st (int_bound 10) in
      let mems =
        List.init n (fun _ ->
            let b = generate1 ~rand:st (int_bound 1) in
            let off = 8 * generate1 ~rand:st (int_bound 3) in
            let data = 1 + generate1 ~rand:st (int_bound 4) in
            if generate1 ~rand:st (int_bound 1) = 0 then
              Mir.mk_inst fn (instr m "ld")
                [| rreg m data; rreg m (base b); Mir.Oimm off |]
            else
              Mir.mk_inst fn (instr m "st")
                [| rreg m data; rreg m (base b); Mir.Oimm off |])
      in
      let insts = prelude @ mems in
      let blk = Mir.new_block "entry" in
      blk.Mir.b_insts <- insts;
      fn.Mir.f_blocks <- [ blk ];
      (fn, insts))
    ~shrink:(fun _ -> Seq.empty)

(* ground truth: the (base reg index, offset) of a memory instruction *)
let access_of (i : Mir.inst) =
  if i.Mir.n_op.Model.i_loads || i.Mir.n_op.Model.i_stores then
    match (i.Mir.n_ops.(1), i.Mir.n_ops.(2)) with
    | Mir.Ophys r, Mir.Oimm off -> Some (r.Model.idx, off)
    | _ -> None
  else None

let reachable (dag : Dag.t) =
  let n = Array.length dag.Dag.insts in
  let succs = Array.make n [] in
  List.iter
    (fun (e : Dag.edge) ->
      succs.(e.Dag.e_src) <- e.Dag.e_dst :: succs.(e.Dag.e_src))
    dag.Dag.edges;
  fun src dst ->
    let seen = Array.make n false in
    let rec go j =
      j = dst
      || (not seen.(j))
         && begin
              seen.(j) <- true;
              List.exists go succs.(j)
            end
    in
    go src

let prop_pruning_sound =
  QCheck2.Test.make ~name:"disambiguation never un-orders real conflicts"
    ~count:200 gen_disambig_block (fun (fn, insts) ->
      let d = Disambig.compute fn in
      let oracle = Dag.oracle (Disambig.may_alias d) in
      let dag = Dag.build ~oracle fn.Mir.f_model insts in
      let reach = reachable dag in
      let arr = Array.of_list insts in
      let ok = ref true in
      for i = 0 to Array.length arr - 1 do
        for j = 0 to i - 1 do
          match (access_of arr.(j), access_of arr.(i)) with
          | Some (bj, oj), Some (bi, oi)
            when bj = bi && oj = oi
                 && (arr.(j).Mir.n_op.Model.i_stores
                    || arr.(i).Mir.n_op.Model.i_stores) ->
              if not (reach j i) then ok := false
          | _ -> ()
        done
      done;
      !ok)

(* and the pruning is not vacuous: accesses under distinct symbols are
   provably independent, so a block touching both bases prunes edges *)
let test_pruning_effective () =
  let m = Lazy.force toyp in
  let fn = Mir.new_func m "p" in
  let insts =
    [
      Mir.mk_inst fn (instr m "la") [| rreg m 6; Mir.Osym ("a", 0) |];
      Mir.mk_inst fn (instr m "la") [| rreg m 7; Mir.Osym ("b", 0) |];
      Mir.mk_inst fn (instr m "st") [| rreg m 1; rreg m 6; Mir.Oimm 0 |];
      Mir.mk_inst fn (instr m "st") [| rreg m 2; rreg m 7; Mir.Oimm 0 |];
      Mir.mk_inst fn (instr m "ld") [| rreg m 3; rreg m 6; Mir.Oimm 8 |];
    ]
  in
  let blk = Mir.new_block "entry" in
  blk.Mir.b_insts <- insts;
  fn.Mir.f_blocks <- [ blk ];
  let d = Disambig.compute fn in
  let oracle = Dag.oracle (Disambig.may_alias d) in
  let dag = Dag.build ~oracle fn.Mir.f_model insts in
  check Alcotest.bool "queries issued" true (oracle.Dag.o_queries > 0);
  check Alcotest.bool "edges pruned" true (oracle.Dag.o_pruned > 0);
  (* st a[0] / st b[0] / ld a[8] are pairwise independent: no Mem edge
     at all among nodes 2, 3, 4 *)
  List.iter
    (fun (e : Dag.edge) ->
      if e.Dag.e_kind = Dag.Mem && e.Dag.e_src >= 2 then
        Alcotest.failf "unexpected Mem edge %d -> %d" e.Dag.e_src e.Dag.e_dst)
    dag.Dag.edges

(* ---------------- behaviour is disambiguation-invariant -------------- *)

(* pruned Mem edges only ever license reorderings of provably independent
   accesses, so simulated behaviour must be bit-identical with the
   analysis on and off — across every target, strategy and jobs count.
   Cycle counts may differ (that is the point); outputs may not. *)
let test_matrix_bit_identity () =
  let src = Livermore.source ~iter:1 1 in
  List.iter
    (fun model ->
      List.iter
        (fun strat ->
          let tag =
            Printf.sprintf "lfk1 on %s/%s" model.Model.name
              (Strategy.to_string strat)
          in
          let run ~jobs ~disambig =
            let c =
              Marion.compile
                ~config:{ Strategy.default_config with jobs; disambig }
                model strat ~file:"<lfk1.c>" src
            in
            (Marion.run c, c)
          in
          let off, _ = run ~jobs:1 ~disambig:false in
          let on, con = run ~jobs:1 ~disambig:true in
          let on4, con4 = run ~jobs:4 ~disambig:true in
          check Alcotest.string (tag ^ " output on=off") off.Sim.output
            on.Sim.output;
          check Alcotest.int (tag ^ " exit on=off") off.Sim.return_value
            on.Sim.return_value;
          check Alcotest.string (tag ^ " output -j4") on.Sim.output
            on4.Sim.output;
          check Alcotest.int (tag ^ " cycles -j4") on.Sim.cycles
            on4.Sim.cycles;
          check Alcotest.string (tag ^ " asm -j1 = -j4")
            (Marion.asm_to_string con.Marion.prog)
            (Marion.asm_to_string con4.Marion.prog);
          (* the validators ran against the oracle-pruned DAGs: clean *)
          check Alcotest.int (tag ^ " no V-diags") 0
            (List.length con.Marion.report.Strategy.validate_diags))
        Strategy.all)
    (Lazy.force models)

(* ---------------- seeded A001 / A002 ---------------- *)

let only_glive =
  {
    Mircheck.default_options with
    Mircheck.def_use = false;
    Mircheck.global_dataflow = true;
  }

let codes ?(options = only_glive) phase fn =
  List.map
    (fun (d : Diag.t) -> d.Diag.code)
    (Mircheck.check_func ~options phase fn)

let test_seeded_a001 () =
  (* a pseudo read before any assignment is live into the entry block *)
  let m = Lazy.force toyp in
  let fn = Mir.new_func m "f" in
  let cls = (Option.get (Model.find_class m "r")).Model.c_id in
  let p = Mir.fresh_preg fn cls in
  let i =
    Mir.mk_inst fn (instr m "add") [| rreg m 1; Mir.Opreg p; rreg m 2 |]
  in
  let blk = Mir.new_block "entry" in
  blk.Mir.b_insts <- [ i ];
  fn.Mir.f_blocks <- [ blk ];
  check (Alcotest.list Alcotest.string) "A001 at post-select" [ "A001" ]
    (codes Diag.Post_select fn);
  check (Alcotest.list Alcotest.string) "quiet at post-sched" []
    (List.filter (fun c -> c.[0] = 'A') (codes Diag.Post_sched fn));
  check (Alcotest.list Alcotest.string) "gated off" []
    (codes
       ~options:
         { only_glive with Mircheck.global_dataflow = false }
       Diag.Post_select fn);
  (* a double assigned as two half-moves (how every target copies one)
     and then read: each half is written before the read, so nothing is
     live into the entry. With half 0 alone written, half 1 still is. *)
  let d = Mir.fresh_preg fn (Option.get (Model.find_class m "d")).Model.c_id in
  let movs = Option.get (Model.instr_by_tag m "s.movs") in
  let half k =
    Mir.mk_inst fn movs [| Mir.Opart (Mir.Opreg d, k); rreg m (1 + k); rreg m 0 |]
  in
  let dreg = Mir.Ophys { Model.cls = d.Mir.p_cls; idx = 1 } in
  let use = Mir.mk_inst fn (instr m "fadd.d") [| dreg; Mir.Opreg d; Mir.Opreg d |] in
  blk.Mir.b_insts <- [ half 0; half 1; use ];
  check (Alcotest.list Alcotest.string) "double written by halves" []
    (codes Diag.Post_select fn);
  blk.Mir.b_insts <- [ half 0; use ];
  check (Alcotest.list Alcotest.string) "double missing half 1" [ "A001" ]
    (codes Diag.Post_select fn)

let test_seeded_a002 () =
  (* a pseudo assigned and never read: the defining add is a dead store *)
  let m = Lazy.force toyp in
  let fn = Mir.new_func m "f" in
  let cls = (Option.get (Model.find_class m "r")).Model.c_id in
  let p = Mir.fresh_preg fn cls in
  let i =
    Mir.mk_inst fn (instr m "add") [| Mir.Opreg p; rreg m 1; rreg m 2 |]
  in
  let blk = Mir.new_block "entry" in
  blk.Mir.b_insts <- [ i ];
  fn.Mir.f_blocks <- [ blk ];
  check (Alcotest.list Alcotest.string) "A002 at post-select" [ "A002" ]
    (codes Diag.Post_select fn);
  check (Alcotest.list Alcotest.string) "quiet at final" []
    (List.filter (fun c -> c.[0] = 'A') (codes Diag.Final fn));
  (* a store to memory is an effect: never reported dead *)
  let st =
    Mir.mk_inst fn (instr m "st") [| rreg m 1; rreg m 2; Mir.Oimm 0 |]
  in
  blk.Mir.b_insts <- [ st ];
  check (Alcotest.list Alcotest.string) "stores are effects" []
    (codes Diag.Post_select fn)

(* every variable of the Livermore kernels is initialized before use, so
   the liveness behind A001 must find nothing live into any entry *)
let test_livermore_no_a001 () =
  List.iter
    (fun model ->
      for k = 1 to 14 do
        let file = Printf.sprintf "lfk%d" k in
        match Select.select_prog model (Cgen.compile ~file (Livermore.source k)) with
        | exception Select.No_pattern _ -> ()
        | prog ->
            List.iter
              (fun fn ->
                List.iter
                  (fun (d : Diag.t) ->
                    if d.Diag.code = "A001" then
                      Alcotest.failf "%s on %s: %s" file model.Model.name
                        (Diag.to_string d))
                  (Mircheck.check_func Diag.Post_select fn))
              prog.Mir.p_funcs
      done)
    (Lazy.force models)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_pruning_sound;
    Alcotest.test_case "pruning is effective" `Quick test_pruning_effective;
    Alcotest.test_case "behaviour matrix: disambig on/off, -j 1/4" `Slow
      test_matrix_bit_identity;
    Alcotest.test_case "seeded A001 (maybe-uninitialized)" `Quick
      test_seeded_a001;
    Alcotest.test_case "seeded A002 (dead store)" `Quick test_seeded_a002;
    Alcotest.test_case "no A001 on the Livermore kernels" `Quick
      test_livermore_no_a001;
  ]
