(* Layered benchmark of the Marion code generator and its pipeline
   simulator, driven through the public API from outside the library.

     perfbench --workload compile|simulate|rebuild --seed N --seconds S
               --trace 0|1

   The cells are Livermore kernels 1-14 x targets (toyp, r2000, m88000,
   i860) x code generation strategies, compiled with the user defaults
   (checking, validation and memory disambiguation on, one job, no cache
   unless the workload attaches one). One process runs a closed loop, one
   operation at a time:

   - compile: an operation compiles one cell from source (all 224 cells).
     Nothing is simulated while the clock runs.
   - simulate: an operation is one [Sim.run] of a Table 4 cell (postpass,
     IPS, RASE; 168 cells) compiled during set-up, checked against the
     reference interpreter.
   - rebuild: the compile cells recompiled against an in-memory [Cache]
     warmed during set-up. Each pass edits a seeded tenth of the cells by
     changing the kernel's repetition count; those miss and are
     recompiled, the rest hit.

   Set-up runs at least three times and its median is reported. The clock
   then runs whole rounds (one pass over the cells for simulate, two for
   compile, ten for rebuild, so that every editable cell is edited once
   per round) until the time given is spent. With [--trace 1], untraced and
   traced rounds alternate; spans recorded around each call into a layer
   give the per-layer self times and the traced rounds' extra wall time
   is the tracing overhead. End-to-end times are scaled by the host's
   speed, sampled with a fixed reference loop after every operation. The
   last line of standard output is one JSON object with the metrics. *)

let now = Mclock.wall

(* ------------------------------------------------------------------ *)
(* The matrix                                                          *)
(* ------------------------------------------------------------------ *)

type target = {
  t_name : string;
  t_desc : string;
  t_register : Model.t -> unit;
}

let targets =
  [
    {
      t_name = Toyp.name;
      t_desc = Toyp.description;
      t_register = Toyp.register_funcs;
    };
    {
      t_name = R2000.name;
      t_desc = R2000.description;
      t_register = R2000.register_funcs;
    };
    {
      t_name = M88000.name;
      t_desc = M88000.description;
      t_register = M88000.register_funcs;
    };
    {
      t_name = I860.name;
      t_desc = I860.description;
      t_register = I860.register_funcs;
    };
  ]

type cell = { kernel : int; target : string; strategy : Strategy.name }

let cell_name c =
  Printf.sprintf "lfk%d/%s/%s" c.kernel c.target
    (Strategy.to_string c.strategy)

let matrix strategies =
  Array.of_list
    (List.concat_map
       (fun t ->
         List.concat_map
           (fun strategy ->
             List.map
               (fun (k : Livermore.kernel) ->
                 { kernel = k.Livermore.k_id; target = t.t_name; strategy })
               Livermore.kernels)
           strategies)
       targets)

(* Naive is the unscheduled -O1 baseline: simulating it exercises no
   scheduler output, so the simulate workload keeps Table 4's three. *)
let table4 = Strategy.[ Postpass; Ips; Rase ]

(* The cells compile and rebuild also simulate, outside the clock, to check
   their generated code: four of the cheapest kernels to simulate that
   have no known defect, together enough simulation (about 3 s a round)
   for a steady throughput. *)
let verify_kernels = [ 3; 11; 12; 13 ]

(* Failures present when this benchmark was written (kind: "compile" is an
   exception from the front end or the strategy, "output" a mismatch with
   the reference interpreter). A run is correct when every failing cell is
   listed here, so fixing one never fails the benchmark. *)
let known_defects =
  [
    ("lfk14/m88000/naive", "compile");
    ("lfk14/m88000/postpass", "compile");
    ("lfk14/m88000/ips", "compile");
    ("lfk14/m88000/rase", "compile");
    ("lfk9/r2000/ips", "output");
    ("lfk9/m88000/ips", "output");
  ]

(* ------------------------------------------------------------------ *)
(* Layers                                                              *)
(* ------------------------------------------------------------------ *)

(* What each target's [load] does, split in two so that tracing can time
   the description's parse and the model's build apart. *)
let load_models () =
  List.map
    (fun t ->
      let ast =
        Trace.span "maril.parse" (fun () ->
            Parser.parse ~name:t.t_name
              ~file:(Printf.sprintf "<%s.maril>" t.t_name)
              t.t_desc)
      in
      let model =
        Trace.span "machine.build" (fun () ->
            let m = Builder.build ast in
            t.t_register m;
            m)
      in
      (t.t_name, model))
    targets

let reference ~iter kernel =
  let file = Printf.sprintf "lfk%d" kernel in
  let src = Livermore.source ~iter kernel in
  Trace.span "cinterp" (fun () -> Marion.interpret ~file src)

(* The span name of each {!Profile} entry of a [Strategy.compile]. *)
let layer_of_entry e =
  let has prefix = String.starts_with ~prefix e in
  match e with
  | "lint" -> "check.lint"
  | "glue" -> "select.glue"
  | "select" -> "select.select"
  | "cached" -> "cache.replay"
  | _ when has "verify:" -> "check." ^ e
  | _ when has "validate" -> "transval." ^ e
  | _ -> "pass." ^ e

let compile_cell ?cache models ~iter c =
  let file = Printf.sprintf "lfk%d" c.kernel in
  let src = Livermore.source ~iter c.kernel in
  let ir = Trace.span "cfront" (fun () -> Cgen.compile ~file src) in
  Trace.span ("strategy." ^ Strategy.to_string c.strategy) (fun () ->
      let ((_, report) as r) =
        Strategy.compile ?cache (List.assoc c.target models) c.strategy ir
      in
      Trace.profile_children ~layer:layer_of_entry report.Strategy.profile;
      r)

(* ------------------------------------------------------------------ *)
(* Passes                                                              *)
(* ------------------------------------------------------------------ *)

type failure = { f_cell : string; f_kind : string; f_detail : string }

(* What one pass over the cells measured. [rows] is the per-cell
   deterministic table; [counts] holds named per-pass totals. *)
type pass = {
  mutable wall : float;  (* summed operation times, seconds *)
  mutable calib : float;  (* summed reference-loop times, seconds *)
  mutable chunks : int;  (* reference loops run *)
  mutable words : float;  (* words allocated by the operations *)
  mutable ops : int;
  mutable fails : failure list;
  mutable rows : (string * string) list;
  mutable passing : (int * float) list;
      (* simulated and estimated cycles of each cell whose output matched *)
  counts : (string, float) Hashtbl.t;
  mutable self : (string, float) Hashtbl.t;  (* span self times *)
  mutable total : (string, float) Hashtbl.t;  (* span durations *)
  traced : bool;
}

let new_pass () =
  {
    wall = 0.0;
    calib = 0.0;
    chunks = 0;
    words = 0.0;
    ops = 0;
    fails = [];
    rows = [];
    passing = [];
    counts = Hashtbl.create 32;
    self = Hashtbl.create 1;
    total = Hashtbl.create 1;
    traced = !Trace.on;
  }

let get p k = Option.value ~default:0.0 (Hashtbl.find_opt p.counts k)

let bump p k v = Hashtbl.replace p.counts k (get p k +. v)

let fail p c kind detail =
  p.fails <-
    { f_cell = cell_name c; f_kind = kind; f_detail = detail } :: p.fails

(* Words allocated so far. The minor collection first makes the count
   exact: words promoted from the minor heap are counted twice by the
   runtime, once allocated and once promoted, and only an empty minor heap
   pairs each promotion with its allocation. *)
let allocated () =
  Gc.minor ();
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* ------------------------------------------------------------------ *)
(* Host speed                                                          *)
(* ------------------------------------------------------------------ *)

(* The host's throughput drifts by tens of percent within minutes, as
   other tenants load it. A fixed reference loop, written here and not in
   the library, is timed after every operation; the end-to-end times are
   scaled by its speed relative to [reference_s], so that a drift the loop
   shares with the operations cancels while a change to the library does
   not. The loop mixes what the compiler does: small allocations, sorting,
   hashing and list walks. *)
let reference_loop () =
  let rng = Random.State.make [| 42 |] in
  let a = Array.init 3000 (fun _ -> Random.State.int rng 1_000_000) in
  Array.sort compare a;
  let h = Hashtbl.create 64 in
  Array.iter (fun x -> Hashtbl.replace h (x land 511) [ x ]) a;
  let l = List.init 3000 (fun i -> (i, float_of_int a.(i))) in
  ignore
    (Sys.opaque_identity
       ( List.fold_left (fun acc (i, f) -> acc +. (f *. float_of_int i)) 0.0 l,
         Hashtbl.length h ))

(* About the reference loop's time, with the minor collection of its
   garbage, on the 2-vCPU KVM guest the benchmark was written on (0.8-1.0 ms
   there). *)
let reference_s = 1e-3

(* After each operation the loop runs once, and more often after a long
   one, to take about this share of the operation's time, so that the
   samples weigh the operations by their length. *)
let reference_share = 0.05

let time_reference p =
  let t0 = now () in
  reference_loop ();
  Gc.minor ();
  p.calib <- p.calib +. (now () -. t0);
  p.chunks <- p.chunks + 1

(* How much slower than the reference host the passes [ps] ran. *)
let slowdown ps =
  let calib = List.fold_left (fun a p -> a +. p.calib) 0.0 ps
  and chunks = List.fold_left (fun a p -> a + p.chunks) 0 ps in
  calib /. float_of_int chunks /. reference_s

let op_count = ref 0

(* Time one operation: its clock and allocation count cover [f] and the
   minor collection of the garbage it leaves, so that an operation pays for
   collecting what it allocates. The opening collection stays outside the
   clock: it collects the benchmark's own garbage from between operations.
   The root span covers [f] only. *)
let timed p f =
  incr op_count;
  let w0 = allocated () in
  let t0 = now () in
  let r =
    try Ok (Trace.root !op_count "op" f)
    with e -> Error (Printexc.to_string e)
  in
  let w1 = allocated () in
  let dt = now () -. t0 in
  p.words <- p.words +. (w1 -. w0);
  p.wall <- p.wall +. dt;
  p.ops <- p.ops + 1;
  for _ = 1 to max 1 (truncate (dt *. reference_share /. reference_s)) do
    time_reference p
  done;
  (r, dt)

(* [replayed] marks a cache hit: its report repeats the stored compile's
   counts, but no analysis ran. *)
let count_code ?(replayed = false) p (report : Strategy.report) =
  let prof = report.Strategy.profile in
  let code c =
    List.length
      (List.filter (fun (d : Diag.t) -> d.Diag.code = c)
         report.Strategy.check_diags)
  in
  bump p "code_insts" (float_of_int prof.Profile.p_insts);
  bump p "regalloc.spilled" (float_of_int report.Strategy.spilled);
  bump p "sched.schedule_passes" (float_of_int report.Strategy.schedule_passes);
  bump p "sched.sb_probes" (float_of_int prof.Profile.p_sb_probes);
  bump p "sched.sb_conflicts" (float_of_int prof.Profile.p_sb_conflicts);
  if not replayed then bump p "analysis.s" prof.Profile.p_an_time;
  bump p "analysis.queries" (float_of_int prof.Profile.p_an_queries);
  bump p "analysis.pruned" (float_of_int prof.Profile.p_an_pruned);
  bump p "check.a001" (float_of_int (code "A001"));
  bump p "check.a002" (float_of_int (code "A002"));
  bump p "transval.diags"
    (float_of_int (List.length report.Strategy.validate_diags))

let asm_digest prog = Digest.to_hex (Digest.string (Marion.asm_to_string prog))

let code_row prog (report : Strategy.report) =
  Printf.sprintf "static=%d spills=%d asm=%s"
    report.Strategy.profile.Profile.p_insts report.Strategy.spilled
    (String.sub (asm_digest prog) 0 12)

(* One simulated operation, checked against the reference output and exit
   code. *)
let simulate_cell p c (prog, report) (oracle : Cinterp.result) =
  match timed p (fun () -> Trace.span "sim" (fun () -> Sim.run prog)) with
  | Error e, _ -> fail p c "sim" e
  | Ok (sim : Sim.result), dt ->
      bump p "sim.s" dt;
      bump p "sim.instructions" (float_of_int sim.Sim.instructions);
      bump p "sim.cycles" (float_of_int sim.Sim.cycles);
      p.rows <-
        ( cell_name c,
          Printf.sprintf "cycles=%d instrs=%d %s" sim.Sim.cycles
            sim.Sim.instructions (code_row prog report) )
        :: p.rows;
      if
        sim.Sim.output <> oracle.Cinterp.output
        || sim.Sim.return_value <> oracle.Cinterp.return_value
      then
        fail p c "output"
          (Printf.sprintf "printed %S exit %d, reference %S exit %d"
             sim.Sim.output sim.Sim.return_value oracle.Cinterp.output
             oracle.Cinterp.return_value)
      else begin
        let est = Marion.estimated_cycles { Marion.prog; report } sim in
        p.passing <- (sim.Sim.cycles, est) :: p.passing
      end

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type runner = {
  round_size : int;  (* passes per round *)
  run_pass : verify:pass -> int -> pass;
      (* the pass with this index; compile and rebuild simulate each verify
         cell into [verify] once per round, never in its first pass *)
  models : (string * Model.t) list;
  cells : cell array;  (* what [select_insts] counts over *)
}

(* Instructions selected for each cell, counted outside the clock by
   running glue and selection on a fresh front-end result. *)
let select_insts models cells =
  Array.fold_left
    (fun acc c ->
      let file = Printf.sprintf "lfk%d" c.kernel in
      let ir = Cgen.compile ~file (Livermore.source c.kernel) in
      let model = List.assoc c.target models in
      match
        List.iter (Glue.transform_func model) ir.Ir.funcs;
        List.map (Select.select_func model) ir.Ir.funcs
      with
      | fns ->
          List.fold_left
            (fun acc (fn : Mir.func) ->
              List.fold_left
                (fun acc (b : Mir.block) -> acc + List.length b.Mir.b_insts)
                acc fn.Mir.f_blocks)
            acc fns
      | exception _ -> acc)
    0 cells

(* The verify cells are simulated right after their operation in one of
   passes 1 .. [round_size - 1] of each round: spread over the round, so
   that their throughput samples the same stretch of time as the
   operations, and never in pass 0, whose heap peak is the workload's own.
   [verify_slot ~round_size c] is that pass, for verify cells only. *)
let verify_slot ~round_size =
  let slots = Hashtbl.create 32 in
  Array.iter
    (fun c ->
      if List.mem c.kernel verify_kernels then
        Hashtbl.replace slots c
          (1 + (Hashtbl.length slots mod (round_size - 1))))
    (matrix Strategy.all);
  Hashtbl.find_opt slots

let verify_oracles () =
  List.map (fun k -> (k, reference ~iter:1 k)) verify_kernels

(* Simulate verify cell [c] into [v], untraced, with the code [compiled]
   gives. *)
let verify_cell oracles v c compiled =
  let on = !Trace.on in
  Trace.on := false;
  (match compiled () with
  | Ok cr -> simulate_cell v c cr (List.assoc c.kernel oracles)
  | Error e -> fail v c "compile" e);
  Trace.on := on

(* Compile one cell per target first, so that the once-per-model work
   (description lint, latency tables) is set-up, not a pass. *)
let warm models =
  List.iter
    (fun t ->
      ignore
        (compile_cell models ~iter:1
           { kernel = 3; target = t.t_name; strategy = Strategy.Naive }))
    targets

let compile_workload rng () =
  let models = load_models () in
  warm models;
  let cells = matrix Strategy.all in
  let oracles = verify_oracles () in
  let round_size = 2 in
  let slot = verify_slot ~round_size in
  let run_pass ~verify n =
    let p = new_pass () in
    Array.iter
      (fun c ->
        let r, _ = timed p (fun () -> compile_cell models ~iter:1 c) in
        (match r with
        | Error e -> fail p c "compile" e
        | Ok (prog, report) ->
            count_code p report;
            p.rows <- (cell_name c, code_row prog report) :: p.rows);
        if slot c = Some (n mod round_size) then
          verify_cell oracles verify c (fun () -> r))
      (shuffle rng cells);
    p
  in
  { round_size; run_pass; models; cells }

let simulate_workload rng () =
  let models = load_models () in
  let oracles =
    List.map
      (fun (k : Livermore.kernel) ->
        (k.Livermore.k_id, reference ~iter:1 k.Livermore.k_id))
      Livermore.kernels
  in
  let cells = matrix table4 in
  let compiled =
    Array.map
      (fun c ->
        try Ok (compile_cell models ~iter:1 c)
        with e -> Error (Printexc.to_string e))
      cells
  in
  let index = Array.init (Array.length cells) Fun.id in
  let run_pass ~verify:_ _ =
    let p = new_pass () in
    Array.iter
      (fun i ->
        let c = cells.(i) in
        match compiled.(i) with
        | Error e ->
            p.ops <- p.ops + 1;
            fail p c "compile" e
        | Ok ((_, report) as cr) ->
            count_code p report;
            simulate_cell p c cr (List.assoc c.kernel oracles))
      (shuffle rng index);
    p
  in
  { round_size = 1; run_pass; models; cells }

(* The edits of one rebuild round: a seeded permutation of the editable
   cells cut into [round] groups, one group per pass. *)
let rebuild_round = 10

let rebuild_workload rng () =
  let models = load_models () in
  (* room for every entry a run stores, so that no store evicts: the cost
     of a pass does not depend on how many passes came before it *)
  let cache = Cache.create ~capacity:max_int () in
  let cells = matrix Strategy.all in
  let iter = Array.make (Array.length cells) 1 in
  (* asm digest of each (cell, repetition count) the first time it was
     compiled: a later cache hit must replay exactly that code *)
  let seen = Hashtbl.create 1024 in
  let editable =
    List.filter_map Fun.id
      (Array.to_list
         (Array.mapi
            (fun i c ->
              match compile_cell ~cache models ~iter:1 c with
              | prog, _ ->
                  Hashtbl.replace seen (i, 1) (asm_digest prog);
                  Some i
              | exception _ -> None)
            cells))
  in
  let groups = Array.make rebuild_round [] in
  Array.iteri
    (fun n i ->
      let g = n mod rebuild_round in
      groups.(g) <- i :: groups.(g))
    (shuffle rng (Array.of_list editable));
  let index = Array.init (Array.length cells) Fun.id in
  let oracles = verify_oracles () in
  let slot = verify_slot ~round_size:rebuild_round in
  let run_pass ~verify n =
    let p = new_pass () in
    List.iter
      (fun i -> iter.(i) <- iter.(i) + 1 + Random.State.int rng 3)
      groups.(n mod rebuild_round);
    Array.iter
      (fun i ->
        let c = cells.(i) in
        let before = Cache.counters cache in
        let r, dt =
          timed p (fun () -> compile_cell ~cache models ~iter:iter.(i) c)
        in
        let after = Cache.counters cache in
        let hit = after.Cache.hits > before.Cache.hits in
        bump p (if hit then "cache.hits" else "cache.misses") 1.0;
        bump p (if hit then "cache.hit_s" else "cache.miss_s") dt;
        (match r with
        | Error e -> fail p c "compile" e
        | Ok (prog, report) -> (
            count_code ~replayed:hit p report;
            let d = asm_digest prog in
            p.rows <- (cell_name c, code_row prog report) :: p.rows;
            match Hashtbl.find_opt seen (i, iter.(i)) with
            | None -> Hashtbl.replace seen (i, iter.(i)) d
            | Some d0 when d0 = d -> ()
            | Some _ ->
                fail p c "cache"
                  (Printf.sprintf "repetition count %d replayed other code"
                     iter.(i))));
        (* verify cells are simulated in their unedited version, compiled
           through the cache *)
        if slot c = Some (n mod rebuild_round) then
          verify_cell oracles verify c (fun () ->
              try Ok (compile_cell ~cache models ~iter:1 c)
              with e -> Error (Printexc.to_string e)))
      (shuffle rng index);
    p
  in
  { round_size = rebuild_round; run_pass; models; cells }

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let median l =
  match List.sort compare l with
  | [] -> nan
  | s ->
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.0

(* A per-pass quantity: its mean over the passes of each round, then the
   median over rounds. *)
let per_pass rounds f =
  median
    (List.map
       (fun round ->
         List.fold_left (fun a p -> a +. f p) 0.0 round
         /. float_of_int (List.length round))
       rounds)

(* Sums over the passing cells in sorted order, so that the float result
   does not depend on the order the seed gave the cells. *)
let sum_passing p f =
  List.fold_left (fun a (c, e) -> a +. f (float_of_int c) e) 0.0
    (List.sort compare p.passing)

let geomean_cycles p =
  exp (sum_passing p (fun c _ -> log c) /. float_of_int (List.length p.passing))

let estimate_ratio p =
  float_of_int (List.length p.passing) /. sum_passing p (fun c e -> e /. c)

let self p name = Option.value ~default:0.0 (Hashtbl.find_opt p.self name)

let total p name = Option.value ~default:0.0 (Hashtbl.find_opt p.total name)

let self_prefix p prefix =
  Hashtbl.fold
    (fun k v acc -> if String.starts_with ~prefix k then acc +. v else acc)
    p.self 0.0

(* ------------------------------------------------------------------ *)
(* Determinism                                                         *)
(* ------------------------------------------------------------------ *)

(* Quantities every pass must repeat exactly; compile and simulate passes
   also repeat their per-cell rows. Allocation is compared apart, within
   [alloc_tolerance]. *)
let det_counts =
  [
    "code_insts";
    "regalloc.spilled";
    "sched.schedule_passes";
    "sched.sb_probes";
    "sched.sb_conflicts";
    "analysis.queries";
    "analysis.pruned";
    "check.a001";
    "check.a002";
    "transval.diags";
    "cache.hits";
    "cache.misses";
    "sim.instructions";
    "sim.cycles";
  ]

let fingerprint ~rows p =
  let b = Buffer.create 4096 in
  List.iter
    (fun k -> Printf.bprintf b "%s %.0f\n" k (get p k))
    det_counts;
  List.iter
    (fun f -> Printf.bprintf b "fail %s %s\n" f.f_cell f.f_kind)
    (List.sort compare p.fails);
  if rows then
    List.iter
      (fun (c, r) -> Printf.bprintf b "%s %s\n" c r)
      (List.sort compare p.rows);
  Buffer.contents b

let first_difference a b =
  let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
  let rec go = function
    | x :: xs, y :: ys ->
        if x = y then go (xs, ys) else Printf.sprintf "%S vs %S" x y
    | x :: _, [] -> Printf.sprintf "%S vs nothing" x
    | [], y :: _ -> Printf.sprintf "nothing vs %S" y
    | [], [] -> "no difference"
  in
  go (la, lb)

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: perfbench --workload compile|simulate|rebuild --seed N \
     --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None
  and trace = ref None in
  let int_arg s =
    match int_of_string_opt s with Some n -> n | None -> usage ()
  in
  let rec go = function
    | "--workload" :: w :: rest -> workload := w; go rest
    | "--seed" :: n :: rest -> seed := Some (int_arg n); go rest
    | "--seconds" :: n :: rest -> seconds := Some (float_of_string n); go rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := Some (t = "1"); go rest
    | [] -> ()
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  match (!workload, !seed, !seconds, !trace) with
  | ("compile" | "simulate" | "rebuild"), Some seed, Some s, Some t
    when s > 0.0 ->
      (!workload, seed, s, t)
  | _ -> usage ()

(* Set-up runs at least [setups] times and until [setup_seconds] are spent,
   so that a cheap set-up is timed often enough for a steady median. *)
let setups = 3

let setup_seconds = 2.0

let out_dir = ".perfbench"

type run = {
  setup_times : float list;
  setup_self : (string, float) Hashtbl.t list;  (* span self times *)
  runner : runner;
  rounds : pass list list;
  verify : pass list;  (* one verify pass per round *)
  peak_mb : float;
}

(* The reference loop runs [setup_chunks] times before and after each
   set-up, to scale its time like the operations'. *)
let setup_chunks = 10

let set_up make =
  let spent = ref 0.0 and times = ref [] and selfs = ref []
  and runner = ref None in
  while List.length !times < setups || !spent < setup_seconds do
    runner := None;
    let c = new_pass () in
    for _ = 1 to setup_chunks do time_reference c done;
    Gc.full_major ();
    let m = Trace.mark () in
    let t0 = now () in
    runner := Some (make ());
    let dt = now () -. t0 in
    for _ = 1 to setup_chunks do time_reference c done;
    spent := !spent +. dt;
    times := (dt /. slowdown [ c ]) :: !times;
    selfs := fst (Trace.summary (Trace.since m)) :: !selfs
  done;
  (!times, !selfs, Option.get !runner)

(* Whole rounds until [seconds] are spent. A traced run alternates
   untraced and traced rounds and ends on a traced one. The heap peak is
   read after the first pass, before any verify simulation. *)
let measure ~trace ~seconds runner =
  let t0 = now () in
  let peak_mb = ref 0.0 and verify = ref [] in
  let rec go r acc =
    Trace.on := trace && r mod 2 = 1;
    let m = Trace.mark () in
    let v = new_pass () in
    let round =
      List.init runner.round_size (fun i ->
          let p = runner.run_pass ~verify:v ((r * runner.round_size) + i) in
          if r = 0 && i = 0 then
            peak_mb :=
              float_of_int
                ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
              /. 1048576.0;
          p)
    in
    if v.ops > 0 then verify := v :: !verify;
    if !Trace.on then begin
      (* per-pass span times: the round's sums over its length *)
      let self, total = Trace.summary (Trace.since m) in
      let k = float_of_int runner.round_size in
      let per h = Hashtbl.filter_map_inplace (fun _ v -> Some (v /. k)) h in
      per self;
      per total;
      List.iter
        (fun p ->
          p.self <- self;
          p.total <- total)
        round
    end;
    Trace.on := false;
    let acc = round :: acc in
    if now () -. t0 >= seconds && ((not trace) || r mod 2 = 1) then
      List.rev acc
    else go (r + 1) acc
  in
  let rounds = go 0 [] in
  (rounds, List.rev !verify, !peak_mb)

(* Allocation per pass is deterministic up to the odd hash-table resize,
   so two amounts agree when they are this many words apart or closer. *)
let alloc_tolerance = 1e6

(* The deterministic quantities must repeat across the passes of a run,
   across its verify passes, and across runs of the same build, compared
   through a file named by the executable's digest. Returns the
   differences found. *)
let check_determinism workload run =
  let errors = ref [] in
  let report what detail =
    errors := Printf.sprintf "%s: %s" what detail :: !errors
  in
  let check what a b = if a <> b then report what (first_difference a b) in
  let check_alloc what a b =
    if Float.abs (a -. b) > alloc_tolerance then
      report what (Printf.sprintf "%.0f vs %.0f words allocated" a b)
  in
  let passes = List.concat run.rounds in
  (* rebuild's rows change with its edits *)
  let rows = workload <> "rebuild" in
  let fp0 = fingerprint ~rows (List.hd passes) in
  List.iteri
    (fun i p ->
      check (Printf.sprintf "pass %d vs pass 0" i) fp0 (fingerprint ~rows p))
    passes;
  let vfp = List.map (fingerprint ~rows:true) run.verify in
  List.iteri
    (fun i fp ->
      check (Printf.sprintf "verify %d vs verify 0" i) (List.hd vfp) fp)
    vfp;
  (* allocation per pass as a round's mean; spans allocate, so traced
     rounds compare with traced ones *)
  let words r =
    List.fold_left (fun a p -> a +. p.words) 0.0 r
    /. float_of_int (List.length r)
  in
  let traced r = (List.hd r).traced in
  List.iteri
    (fun i r ->
      let like = List.find (fun q -> traced q = traced r) run.rounds in
      check_alloc (Printf.sprintf "round %d allocation" i) (words like)
        (words r))
    run.rounds;
  (* what rebuild allocates depends on the edits its seed draws *)
  let run_words =
    if rows then
      Some (words (List.find (fun r -> not (traced r)) run.rounds))
    else None
  in
  let run_fp = fp0 ^ match vfp with v :: _ -> v | [] -> "" in
  let file =
    Filename.concat out_dir
      (Printf.sprintf "det-%s-%s.txt" workload
         (String.sub (Digest.to_hex (Digest.file Sys.executable_name)) 0 12))
  in
  (* the file holds the untraced allocation per pass on its first line
     ("-" for none), then the fingerprint *)
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  if Sys.file_exists file then begin
    let saved = In_channel.with_open_bin file In_channel.input_all in
    let nl = String.index saved '\n' in
    let fp = String.sub saved (nl + 1) (String.length saved - nl - 1) in
    check "this run vs an earlier run" fp run_fp;
    match (float_of_string_opt (String.sub saved 0 nl), run_words) with
    | Some a, Some b -> check_alloc "this run vs an earlier run" a b
    | _ -> ()
  end
  else
    Out_channel.with_open_bin file (fun oc ->
        Printf.fprintf oc "%s\n%s"
          (match run_words with Some w -> Printf.sprintf "%.0f" w | None -> "-")
          run_fp);
  List.rev !errors

let end_to_end run ~ok_ratio =
  let first = List.hd (List.concat run.rounds) in
  let sum ps k = List.fold_left (fun a p -> a +. get p k) 0.0 ps in
  let sims = if run.verify = [] then List.concat run.rounds else run.verify in
  let sim0 = List.hd sims in
  [
    ("setup_s", median run.setup_times, "s");
    ("wall_s", per_pass run.rounds (fun p -> p.wall /. slowdown [ p ]), "s");
    ( "sim_minstr_per_s",
      sum sims "sim.instructions" /. sum sims "sim.s" /. 1e6 *. slowdown sims,
      "Minstr/s" );
    ("cycles_geomean", geomean_cycles sim0, "cycles");
    ("code_insts", get first "code_insts", "count");
    ("alloc_mwords", per_pass run.rounds (fun p -> p.words /. 1e6), "Mwords");
    ("peak_heap_mb", run.peak_mb, "MB");
    ("ok_ratio", ok_ratio, "ratio");
  ]

let pass_names =
  [
    "allocate"; "allocate-local"; "rase-sweep"; "rase-prepass"; "ips-prepass";
    "schedule"; "estimate"; "estimate-inorder"; "fill-delay"; "frame-layout";
  ]

(* Per-layer metrics from the traced rounds: span self times per pass, the
   counts every pass records, and the set-up spans' median. *)
let per_layer run =
  let traced, untraced =
    List.partition (fun r -> (List.hd r).traced) run.rounds
  in
  let t f = per_pass traced f in
  let setup name =
    median
      (List.map
         (fun h -> Option.value ~default:0.0 (Hashtbl.find_opt h name))
         run.setup_self)
  in
  let count name = (name, t (fun p -> get p name), "count") in
  let ratio name num den =
    ( name,
      t (fun p ->
          let d = den p in
          if d = 0.0 then 0.0 else num p /. d),
      "ratio" )
  in
  let sim0 =
    match run.verify with v :: _ -> v | [] -> List.hd (List.concat traced)
  in
  let traced_wall = t (fun p -> p.wall) in
  let scaled_wall rounds = per_pass rounds (fun p -> p.wall /. slowdown [ p ]) in
  (* time inside Strategy.compile that no profile entry names: key
     digests, cache stores, merging the units' reports *)
  let strategy_self p =
    List.fold_left
      (fun a s -> a +. self p ("strategy." ^ Strategy.to_string s))
      0.0 Strategy.all
  in
  [
    ("maril.parse_s", setup "maril.parse", "s");
    ("machine.build_s", setup "machine.build", "s");
    ("cinterp.s", setup "cinterp", "s");
    ("cfront.s", t (fun p -> self p "cfront"), "s");
    ("select.glue_s", t (fun p -> self p "select.glue"), "s");
    ("select.select_s", t (fun p -> self p "select.select"), "s");
    ( "select.insts",
      float_of_int (select_insts run.runner.models run.runner.cells),
      "count" );
  ]
  @ List.map
      (fun n -> ("pass." ^ n ^ "_s", t (fun p -> self p ("pass." ^ n)), "s"))
      pass_names
  @ List.map
      (fun s ->
        let n = "strategy." ^ Strategy.to_string s in
        (n ^ "_s", t (fun p -> total p n), "s"))
      Strategy.all
  @ [
      ("strategy.self_s", t strategy_self, "s");
      count "regalloc.spilled";
      count "sched.schedule_passes";
      count "sched.sb_probes";
      ratio "sched.sb_conflict_ratio"
        (fun p -> get p "sched.sb_conflicts")
        (fun p -> get p "sched.sb_probes");
      ("analysis.s", t (fun p -> get p "analysis.s"), "s");
      count "analysis.queries";
      count "analysis.pruned";
      ("check.s", t (fun p -> self_prefix p "check."), "s");
      count "check.a001";
      count "check.a002";
      ("transval.s", t (fun p -> self_prefix p "transval."), "s");
      count "transval.diags";
      count "cache.hits";
      count "cache.misses";
      ratio "cache.hit_ratio"
        (fun p -> get p "cache.hits")
        (fun p -> get p "cache.hits" +. get p "cache.misses");
      ( "cache.hit_ms",
        t (fun p ->
               let h = get p "cache.hits" in
               if h = 0.0 then 0.0 else 1e3 *. get p "cache.hit_s" /. h),
        "ms" );
      ( "cache.miss_ms",
        t (fun p ->
            let m = get p "cache.misses" in
            if m = 0.0 then 0.0 else 1e3 *. get p "cache.miss_s" /. m),
        "ms" );
      ( "sim.s",
        (if run.verify = [] then t (fun p -> self p "sim")
         else get sim0 "sim.s"),
        "s" );
      ("sim.instructions", get sim0 "sim.instructions", "count");
      ("sim.cycles", get sim0 "sim.cycles", "count");
      ("sim.estimate_ratio", estimate_ratio sim0, "ratio");
      (* scaled like wall_s, since the traced and untraced rounds ran at
         different times *)
      ("trace.wall_s", scaled_wall traced, "s");
      ("trace.overhead_s", scaled_wall traced -. scaled_wall untraced, "s");
      (* the named layers' share of the traced wall: neither the roots'
         own time, nor the closing minor collection, nor the strategy
         spans' unattributed time counts *)
      ( "trace.coverage",
        t (fun p -> self_prefix p "" -. self p "op" -. strategy_self p)
        /. traced_wall,
        "ratio" );
    ]

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let () =
  let workload, seed, seconds, trace = parse_args () in
  let rng = Random.State.make [| seed |] in
  let make =
    match workload with
    | "compile" -> compile_workload rng
    | "simulate" -> simulate_workload rng
    | _ -> rebuild_workload rng
  in
  Trace.on := trace;
  let setup_times, setup_self, runner = set_up make in
  Gc.full_major ();
  let rounds, verify, peak_mb = measure ~trace ~seconds runner in
  let run = { setup_times; setup_self; runner; rounds; verify; peak_mb } in
  let passes = List.concat rounds in
  let first = List.hd passes in
  let det_errors = check_determinism workload run in
  (* a cell fails when its operation or its verify simulation does; the run
     is correct when every failure is a known defect *)
  let all_fails = List.concat_map (fun p -> p.fails) (passes @ verify) in
  let failing =
    List.sort_uniq compare
      (List.map
         (fun f -> (f.f_cell, f.f_kind))
         (first.fails @ match verify with v :: _ -> v.fails | [] -> []))
  in
  let unknown =
    List.filter
      (fun f -> not (List.mem (f.f_cell, f.f_kind) known_defects))
      all_fails
  in
  Printf.printf
    "# perfbench %s seed=%d seconds=%g trace=%b: %d rounds, %d passes\n"
    workload seed seconds trace (List.length rounds) (List.length passes);
  Printf.printf "# pass wall_s, unscaled, and slowdown:%s\n"
    (String.concat ""
       (List.map
          (fun p ->
            Printf.sprintf " %.4f%s/%.3f" p.wall
              (if p.traced then "t" else "")
              (slowdown [ p ]))
          passes));
  (* the per-cell table: the first pass's rows, with the cycles of the
     first verify simulation where there is one *)
  let sim_rows = match verify with v :: _ -> v.rows | [] -> [] in
  List.iter
    (fun (c, r) ->
      Printf.printf "cell %-24s %s\n" c
        (Option.value ~default:r (List.assoc_opt c sim_rows)))
    (List.sort compare first.rows);
  List.iter
    (fun (c, k) ->
      let f = List.find (fun f -> f.f_cell = c && f.f_kind = k) all_fails in
      Printf.printf "failure %-24s %s%s: %s\n" c k
        (if List.mem (c, k) known_defects then " (known defect)" else "")
        f.f_detail)
    failing;
  List.iter (Printf.printf "determinism violation: %s\n") det_errors;
  let ok_ratio =
    1.0 -. (float_of_int (List.length failing) /. float_of_int first.ops)
  in
  let metrics = if trace then per_layer run else end_to_end run ~ok_ratio in
  if trace then
    Trace.write
      (Filename.concat out_dir
         (Printf.sprintf "trace-%s-seed%d.json" workload seed));
  let correct = unknown = [] && det_errors = [] in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct
    (List.fold_left (fun a p -> a + p.ops) 0 passes)
    (List.fold_left (fun a p -> a + List.length p.fails) 0 passes)
    (String.concat ", "
       (List.map
          (fun (n, v, u) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n
              (json_number v) u)
          metrics));
  if not correct then begin
    List.iter
      (fun f ->
        Printf.eprintf "perfbench: unexpected failure %s %s: %s\n" f.f_cell
          f.f_kind f.f_detail)
      unknown;
    List.iter (Printf.eprintf "perfbench: determinism violation: %s\n")
      det_errors;
    exit 1
  end
