(* Bit-identity snapshots for the unified timing engine.

   The lib/timing refactor (one Scoreboard / Latency / Temporal model
   shared by the scheduler, estimator, simulator and checkers) must not
   change a single observable bit: schedules, simulated cycle counts,
   Mircheck/Schedval diagnostics and cache keys are asserted against
   golden digests captured from the pre-refactor compiler, at -j 1 and
   -j 4.

   The digest logic is shared verbatim with bench/goldens.ml (the
   generator); keep the two in sync. Regenerate the table with

     dune exec bench/goldens.exe

   ONLY for an intentional behavior change — never to paper over an
   unintended schedule or cycle-count difference. *)

let check = Alcotest.check

let targets =
  [
    ("toyp", lazy (Toyp.load ()));
    ("r2000", lazy (R2000.load ()));
    ("m88000", lazy (M88000.load ()));
    ("i860", lazy (I860.load ()));
  ]

(* One digest per (target, strategy) cell: everything the unified timing
   engine must keep bit-identical. The blob covers the rendered assembly,
   the report's deterministic statistics and diagnostics, the simulator's
   cycle/instruction counts and program output, and the compilation-cache
   key of every function (IR digest + model digest + pipeline digest,
   combined exactly as Strategy.compile does). Wall-clock fields are
   deliberately excluded. *)

let kernel_ids = [ 1; 2; 3; 5; 7 ]

let cell_blob ~jobs model strat : string =
  let config = { Strategy.default_config with jobs } in
  let buf = Buffer.create (1 lsl 16) in
  let add fmt = Printf.bprintf buf fmt in
  List.iter
    (fun id ->
      let file = Printf.sprintf "lfk%d" id in
      let src = Livermore.source id in
      add "== %s\n" file;
      match
        let ir = Cgen.compile ~file src in
        let r = Strategy.compile ~config model strat ir in
        (ir, r)
      with
      | ir, (prog, report) ->
          add "asm:\n%s\n" (Format.asprintf "%a" Mir.pp_prog prog);
          add "spilled:%d passes:%d\n" report.Strategy.spilled
            report.Strategy.schedule_passes;
          Hashtbl.fold
            (fun k v acc -> (k, v) :: acc)
            report.Strategy.block_estimates []
          |> List.sort compare
          |> List.iter (fun (l, n) -> add "est:%s=%d\n" l n);
          List.iter
            (fun d -> add "diag:%s\n" (Diag.to_string d))
            report.Strategy.check_diags;
          List.iter
            (fun d -> add "vdiag:%s\n" (Diag.to_string d))
            report.Strategy.validate_diags;
          (match Sim.run prog with
          | r ->
              add "sim:cycles=%d insts=%d ret=%d loads=%d out=%s\n"
                r.Sim.cycles r.Sim.instructions r.Sim.return_value
                r.Sim.loads
                (String.escaped r.Sim.output)
          | exception Sim.Sim_error m -> add "simerr:%s\n" m);
          (* cache keys exactly as Strategy.compile builds them; the IR
             was glued by the compile above, so of_ir_func sees the same
             trees the cache would digest *)
          let pipe = Strategy.pipeline_key config strat in
          let md = Ckey.of_model model in
          List.iter
            (fun irfn ->
              add "key:%s\n"
                (Ckey.to_hex
                   (Ckey.combine [ Ckey.of_ir_func irfn; md; pipe ])))
            ir.Ir.funcs
      | exception Select.No_pattern msg -> add "no-pattern:%s\n" msg
      | exception Loc.Error (loc, msg) ->
          add "error:%s\n" (Loc.error_to_string loc msg)
      | exception Diag.Check_error ds ->
          List.iter (fun d -> add "checkerr:%s\n" (Diag.to_string d)) ds)
    kernel_ids;
  Buffer.contents buf

let cell_digest ~jobs model strat =
  Digest.to_hex (Digest.string (cell_blob ~jobs model strat))

let goldens =
  [
    (("toyp", "naive"), "8a7d350a1d631e4f7df1804c9967639e");
    (("toyp", "postpass"), "58cefe4f2d5ec7ee9f217fc10aa6763c");
    (("toyp", "ips"), "05bbb58e91197df304892373d036324e");
    (("toyp", "rase"), "5c9452368a86e82f8dc8f2a13d386928");
    (("r2000", "naive"), "1f502a79b39af9bb873cca94abc6bb76");
    (("r2000", "postpass"), "add5f8acf3c53056be476d27c5c35b0f");
    (("r2000", "ips"), "104baef63b4256b4b67c697d9da11314");
    (("r2000", "rase"), "25d38cfcb67b4f4bb4a57386065fd394");
    (("m88000", "naive"), "ac9b68dbbc2cc991b5b3d643b8c37de5");
    (("m88000", "postpass"), "ed2e8da779b5c0e72ec59ce9fbeb3fcc");
    (("m88000", "ips"), "3e70bca60157b01c63b1219162732a25");
    (("m88000", "rase"), "0e01f3542ed1de4e5c4c2c46c50a00bf");
    (("i860", "naive"), "e495ab8099784bde49d3e1f8926f467e");
    (("i860", "postpass"), "b40c3a8905f1ef8dbd865d9fe64b2933");
    (("i860", "ips"), "6b29d30eb379e035dc2c14d1b1b13f57");
    (("i860", "rase"), "a6ec6601eb174c64402a6dfabf628011");
  ]

let test_bit_identity ~jobs () =
  List.iter
    (fun (tname, model) ->
      List.iter
        (fun strat ->
          let expected = List.assoc (tname, Strategy.to_string strat) goldens in
          check Alcotest.string
            (Printf.sprintf "%s/%s (-j %d)" tname
               (Strategy.to_string strat) jobs)
            expected
            (cell_digest ~jobs (Lazy.force model) strat))
        Strategy.all)
    targets

(* ------------------------------------------------------------------ *)
(* Latency oracle: memoized table == direct aux-table scan, for every
   (op, op) pair of every target under several operand predicates. *)

let test_latency_oracle () =
  List.iter
    (fun (tname, model) ->
      let model = Lazy.force model in
      let oracle = Latency.for_model model in
      let preds =
        [
          ("always", fun _ _ -> true);
          ("never", fun _ _ -> false);
          ("parity", fun a b -> (a + b) mod 2 = 0);
        ]
      in
      Array.iter
        (fun (first : Model.instr) ->
          Array.iter
            (fun (second : Model.instr) ->
              List.iter
                (fun (pname, opnd_eq) ->
                  check
                    Alcotest.(option int)
                    (Printf.sprintf "%s: %s -> %s (%s)" tname
                       first.Model.i_name second.Model.i_name pname)
                    (Model.aux_latency model ~first ~second ~opnd_eq)
                    (Latency.find oracle ~first ~second ~opnd_eq))
                preds)
            model.Model.instrs)
        model.Model.instrs)
    targets

(* ------------------------------------------------------------------ *)
(* Scoreboard: ring buffer == an unbounded reference busy table on
   random monotone probe/reserve sequences, and memory stays bounded
   over millions of cycles. *)

let instr_exn model name =
  match
    Array.find_opt
      (fun (i : Model.instr) -> i.Model.i_name = name)
      model.Model.instrs
  with
  | Some i -> i
  | None -> Alcotest.failf "%s: no %%instr %s" model.Model.name name

(* the model with its resources renumbered across the first word
   boundary, so the scoreboard keeps a bit set per ring slot *)
let widen (model : Model.t) =
  let shift = Sys.int_size - 4 in
  let nres = shift + Array.length model.Model.resources in
  let wide b = Bitset.of_list nres (List.map (( + ) shift) (Bitset.to_list b)) in
  {
    model with
    Model.resources = Array.init nres (Printf.sprintf "R%d");
    instrs =
      Array.map
        (fun (i : Model.instr) -> { i with Model.i_rvec = Array.map wide i.Model.i_rvec })
        model.Model.instrs;
  }

let scoreboard_vs_reference model =
  let nres = Array.length model.Model.resources in
  (* reference: one bitset per absolute cycle, never recycled *)
  let ref_busy : (int, Bitset.t) Hashtbl.t = Hashtbl.create 64 in
  let ref_at c =
    match Hashtbl.find_opt ref_busy c with
    | Some b -> b
    | None ->
        let b = Bitset.create nres in
        Hashtbl.replace ref_busy c b;
        b
  in
  let ref_conflict cycle (rvec : Bitset.t array) =
    let hit = ref false in
    Array.iteri
      (fun c req ->
        if (not !hit) && not (Bitset.inter_empty (ref_at (cycle + c)) req)
        then hit := true)
      rvec;
    !hit
  in
  let ref_reserve cycle (rvec : Bitset.t array) =
    Array.iteri
      (fun c req -> Bitset.union_into ~dst:(ref_at (cycle + c)) req)
      rvec
  in
  let sb = Scoreboard.create model in
  let rng = Random.State.make [| 0x5eed; 42 |] in
  let ops =
    Array.map (instr_exn model)
      [| "addu"; "mult"; "div"; "lw"; "add.d"; "jr"; "nop" |]
  in
  let cycle = ref 0 in
  for _ = 1 to 20_000 do
    (* monotone, sometimes jumping past the whole window *)
    cycle := !cycle + Random.State.int rng 40;
    let op = ops.(Random.State.int rng (Array.length ops)) in
    check Alcotest.bool
      (Printf.sprintf "conflict at %d" !cycle)
      (ref_conflict !cycle op.Model.i_rvec)
      (Scoreboard.conflict sb ~cycle:!cycle op);
    if Random.State.bool rng then begin
      ref_reserve !cycle op.Model.i_rvec;
      Scoreboard.reserve sb ~cycle:!cycle op
    end
  done;
  (* probing behind the window base is a contract violation, not a
     silent wrong answer *)
  check Alcotest.bool "backward probe raises" true
    (match Scoreboard.conflict sb ~cycle:0 ops.(0) with
    | (_ : bool) -> false
    | exception Invalid_argument _ -> true)

let test_scoreboard_vs_reference () =
  let model = Lazy.force (List.assoc "r2000" targets) in
  scoreboard_vs_reference model;
  scoreboard_vs_reference (widen model)

let test_scoreboard_bounded () =
  let model = Lazy.force (List.assoc "r2000" targets) in
  let sb = Scoreboard.create model in
  check Alcotest.bool "window is the max resource-vector span" true
    (Scoreboard.window sb <= 40);
  let addu = instr_exn model "addu" in
  Gc.full_major ();
  let live0 = (Gc.stat ()).Gc.live_words in
  for c = 0 to 2_000_000 do
    ignore (Scoreboard.conflict sb ~cycle:c addu : bool);
    Scoreboard.reserve sb ~cycle:c addu
  done;
  Gc.full_major ();
  let live1 = (Gc.stat ()).Gc.live_words in
  (* the sim's old Hashtbl busy table leaked one entry per probed cycle;
     the ring must not retain anything proportional to the cycle count *)
  check Alcotest.bool
    (Printf.sprintf "live-word growth %d bounded" (live1 - live0))
    true
    (live1 - live0 < 10_000)

(* the end-to-end shape of the same regression: a long Livermore run
   (hundreds of thousands of simulated cycles) completes with resource
   tracking bounded by the ring window *)
let test_sim_long_run () =
  let model = Lazy.force (List.assoc "r2000" targets) in
  let ir = Cgen.compile ~file:"lfk1-long" (Livermore.source ~iter:200 1) in
  let prog, _report = Strategy.compile model Strategy.Postpass ir in
  let r = Sim.run prog in
  check Alcotest.bool
    (Printf.sprintf "long run simulated (%d cycles)" r.Sim.cycles)
    true
    (r.Sim.cycles > 200_000)

(* ------------------------------------------------------------------ *)
(* Differential property: on hazard-free straight-line blocks the
   scheduler's predicted block length equals the simulator's issue
   span. Destinations are all distinct and sources are the hardwired
   zero register, so there are no data dependences; structural hazards
   (the multiplier's long MD occupancy, single-issue IF) and the branch
   delay slot are exactly what both engines must agree on. *)

let sched_sim_agree =
  let model = Lazy.force (List.assoc "r2000" targets) in
  let rcls =
    match Model.find_class model "r" with
    | Some c -> c.Model.c_id
    | None -> Alcotest.fail "r2000 has no class r"
  in
  let reg idx = { Model.cls = rcls; Model.idx } in
  let zero = reg 0 in
  let alu_ops = [| "addu"; "subu"; "and"; "or"; "xor"; "mult" |] in
  let gen =
    let open QCheck2.Gen in
    list_size (1 -- 20) (0 -- (Array.length alu_ops - 1))
  in
  QCheck2.Test.make ~name:"scheduler length == simulator issue span"
    ~count:60 gen (fun picks ->
      let fn = Mir.new_func model "main" in
      let body =
        List.mapi
          (fun k pick ->
            let op = instr_exn model alu_ops.(pick) in
            Mir.mk_inst fn op
              [| Mir.Ophys (reg (2 + k)); Mir.Ophys zero; Mir.Ophys zero |])
          picks
      in
      let jr =
        Mir.mk_inst fn (instr_exn model "jr") [| Mir.Ophys (reg 31) |]
      in
      let b = Mir.new_block "main" in
      b.Mir.b_insts <- body @ [ jr ];
      fn.Mir.f_blocks <- [ b ];
      let predicted = Listsched.schedule_func fn in
      let prog =
        { Mir.p_model = model; Mir.p_globals = []; Mir.p_funcs = [ fn ] }
      in
      let r = Sim.run prog in
      if r.Sim.cycles <> predicted then
        QCheck2.Test.fail_reportf
          "scheduler predicted %d cycles, simulator issued over %d"
          predicted r.Sim.cycles;
      true)

let suite =
  [
    Alcotest.test_case "bit-identity vs pre-refactor goldens (-j 1)" `Slow
      (test_bit_identity ~jobs:1);
    Alcotest.test_case "bit-identity vs pre-refactor goldens (-j 4)" `Slow
      (test_bit_identity ~jobs:4);
    Alcotest.test_case "latency oracle == aux-table scan" `Quick
      test_latency_oracle;
    Alcotest.test_case "scoreboard == unbounded reference" `Quick
      test_scoreboard_vs_reference;
    Alcotest.test_case "scoreboard memory bounded" `Slow
      test_scoreboard_bounded;
    Alcotest.test_case "long Livermore sim run" `Slow test_sim_long_run;
    QCheck_alcotest.to_alcotest sched_sim_agree;
  ]
