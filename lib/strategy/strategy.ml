type name = Naive | Postpass | Ips | Rase

let all = [ Naive; Postpass; Ips; Rase ]

let to_string = function
  | Naive -> "naive"
  | Postpass -> "postpass"
  | Ips -> "ips"
  | Rase -> "rase"

let of_string = function
  | "naive" -> Some Naive
  | "postpass" -> Some Postpass
  | "ips" -> Some Ips
  | "rase" -> Some Rase
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Fault isolation policy                                              *)
(* ------------------------------------------------------------------ *)

type on_error = [ `Abort | `Degrade | `Skip ]

let on_error_name = function
  | `Abort -> "abort"
  | `Degrade -> "degrade"
  | `Skip -> "skip"

(* ------------------------------------------------------------------ *)
(* Compile configuration                                               *)
(* ------------------------------------------------------------------ *)

type config = {
  check : bool;
  check_options : Mircheck.options;
  validate : bool;
  disambig : bool;
  jobs : int;
  on_error : on_error;
  pass_timeout : float option;  (* wall-clock budget per pass, ms *)
  finject : Finject.plan;
}

let default_config =
  {
    check = true;
    check_options = Mircheck.default_options;
    validate = true;
    disambig = true;
    jobs = 1;
    on_error = `Abort;
    pass_timeout = None;
    finject = Finject.empty;
  }

(* the trivial robust policy is the seed behavior: no guard is installed
   at all, so the default path stays bit-identical (and exception-
   identical) to a compiler without the robust layer *)
let robust_trivial c =
  c.on_error = `Abort && c.pass_timeout = None && Finject.is_empty c.finject

(* the ladder lives in Degrade as strategy names; map it back *)
let degrade_next rung = Option.bind (Degrade.next (to_string rung)) of_string

type report = {
  strategy : name;
  spilled : int;
  block_estimates : (string, int) Hashtbl.t;
  schedule_passes : int;
  check_diags : Diag.t list;
  validate_diags : Diag.t list;
  faults : Degrade.event list;
  profile : Profile.t;
}

(* ------------------------------------------------------------------ *)
(* The pass vocabulary: every strategy is a phase ordering of these.   *)
(* ------------------------------------------------------------------ *)

let no_delay =
  { Listsched.default_options with Listsched.fill_delay = false }

let count_blocks (fn : Mir.func) = List.length fn.Mir.f_blocks

(* every scheduler invocation feeds one scoreboard-stats sink, folded
   into the pass stats so --time-passes can report probe/conflict rates *)
let with_sb_stats st f =
  let sb = Scoreboard.make_stats () in
  let r = f sb in
  st.Pass.sb_probes <- st.Pass.sb_probes + sb.Scoreboard.probes;
  st.Pass.sb_conflicts <- st.Pass.sb_conflicts + sb.Scoreboard.conflicts;
  st.Pass.sb_reserves <- st.Pass.sb_reserves + sb.Scoreboard.reserves;
  r

(* every scheduling-flavored pass body runs through here: with [disambig]
   it computes the memory-disambiguation oracle once from the pass's
   input state — the same snapshot Schedval captures, so the validator
   can rebuild an identical DAG — and folds analysis time and counters
   into the pass stats. The analysis is left in [st.analysis] for the
   pass's validator, which therefore need not solve again (the
   validator's [before] capture preserves instruction ids);
   {!Pass.run_pipeline} clears it once the pass is done. Without
   [disambig] it just runs [f None]. *)
let with_oracle ~disambig st fn f =
  if not disambig then f None
  else begin
    let dstats = Dataflow.fresh_stats () in
    let t0 = Mclock.wall () in
    let d = Disambig.compute ~stats:dstats fn in
    st.Pass.analysis <- Some d;
    st.Pass.an_time <- st.Pass.an_time +. (Mclock.wall () -. t0);
    st.Pass.an_solves <- st.Pass.an_solves + dstats.Dataflow.solves;
    st.Pass.an_iters <- st.Pass.an_iters + dstats.Dataflow.iterations;
    st.Pass.an_facts <- st.Pass.an_facts + dstats.Dataflow.facts;
    let o = Dag.oracle (Disambig.may_alias d) in
    let r = f (Some o) in
    st.Pass.an_queries <- st.Pass.an_queries + o.Dag.o_queries;
    st.Pass.an_pruned <- st.Pass.an_pruned + o.Dag.o_pruned;
    r
  end

(* the estimate passes also size the DAGs they schedule on, which is
   what --time-passes reports as dag-nodes/dag-edges; hence the block
   loop here rather than Listsched.estimate_func, which keeps only the
   lengths *)
let record_estimates ?oracle st (fn : Mir.func) options =
  with_sb_stats st (fun sb ->
      List.iter
        (fun (b : Mir.block) ->
          let r =
            Listsched.schedule_block ~options ?oracle ~sb_stats:sb fn
              b.Mir.b_insts
          in
          Pass.record_estimate st b.Mir.b_label r.Listsched.length;
          st.Pass.dag_nodes <- st.Pass.dag_nodes + r.Listsched.dag_nodes;
          st.Pass.dag_edges <- st.Pass.dag_edges + r.Listsched.dag_edges)
        fn.Mir.f_blocks);
  st.Pass.sched_passes <- st.Pass.sched_passes + count_blocks fn

let p_allocate =
  Pass.v ~post:Diag.Post_regalloc "allocate" (fun st fn ->
      let r = Regalloc.allocate fn in
      st.Pass.spilled <- st.Pass.spilled + r.Regalloc.spilled)

(* the naive baseline: local allocation only, every cross-block value
   spilled *)
let p_allocate_local =
  Pass.v ~post:Diag.Post_regalloc "allocate-local" (fun st fn ->
      let r = Regalloc.allocate ~forbid_global_pregs:true fn in
      st.Pass.spilled <- st.Pass.spilled + r.Regalloc.spilled)

let p_fill_delay =
  Pass.v ~post:Diag.Post_sched "fill-delay" (fun _ fn -> Delay.fill_func fn)

let p_schedule ~disambig =
  Pass.v ~post:Diag.Post_sched "schedule" (fun st fn ->
      with_oracle ~disambig st fn (fun oracle ->
          ignore
            (with_sb_stats st (fun sb ->
                 Listsched.schedule_func ?oracle ~sb_stats:sb fn)));
      st.Pass.sched_passes <- st.Pass.sched_passes + count_blocks fn)

(* IPS prepass: schedule under a register-use limit so the allocator sees
   the schedule's register appetite; no post-condition — the output is
   rescheduled after allocation.

   Deliberately oracle-free, like every pre-allocation scheduling pass:
   pruning Mem edges here lets the prepass hoist loads across stores,
   stretching live ranges before the allocator runs. Measured on the
   Livermore corpus that freedom made allocation slower and spillier and
   cost cycles on the register-poorest target; the post-allocation
   schedule pass reorders through the oracle instead, where extra
   freedom cannot create spills. *)
let p_ips_prepass =
  Pass.v "ips-prepass" (fun st fn ->
      let options =
        { no_delay with Listsched.reg_limit = Listsched.Auto_minus 1 }
      in
      ignore
        (with_sb_stats st (fun sb ->
             Listsched.schedule_func ~options ~sb_stats:sb fn));
      st.Pass.sched_passes <- st.Pass.sched_passes + count_blocks fn)

let p_estimate ~disambig =
  Pass.v "estimate" (fun st fn ->
      with_oracle ~disambig st fn (fun oracle ->
          record_estimates ?oracle st fn Listsched.default_options))

(* the "estimate" of unscheduled (naive) code is its in-order issue span.
   NOTE: estimating naive code with the list scheduler slightly flatters
   it; the naive strategy is only a baseline *)
let p_estimate_inorder ~disambig =
  Pass.v "estimate-inorder" (fun st fn ->
      with_oracle ~disambig st fn (fun oracle ->
          record_estimates ?oracle st fn no_delay))

(* The largest register budget worth exploring for RASE estimates. *)
let max_budget (model : Model.t) =
  Array.fold_left
    (fun acc (c : Model.rclass) ->
      max acc (List.length (Model.allocable_of_class model c.Model.c_id)))
    1 model.Model.classes

(* RASE's expensive half: the schedule cost of the function under each
   register budget 1..max_budget (element [n - 1] is budget [n]), and
   the block schedules run to get it. Each block's DAG and priorities
   are built once and rescheduled per budget. A block stops at the first
   budget under which the limit never refused a candidate: every larger
   budget makes the same picks, so that length carries forward to the
   remaining budgets. *)
(* oracle-free like [p_ips_prepass]: the sweep's estimates must model
   the schedules the (pre-allocation, hence conservative) rase-prepass
   will actually produce, or the chosen budget is tuned for a different
   scheduler than the one that runs *)
let rase_costs ?sb_stats (fn : Mir.func) =
  let budgets = max_budget fn.Mir.f_model in
  let cost = Array.make budgets 0 in
  let runs = ref 0 in
  List.iter
    (fun (b : Mir.block) ->
      let block = Listsched.prepare ~options:no_delay fn b.Mir.b_insts in
      let rec sweep n =
        let options =
          { no_delay with Listsched.reg_limit = Listsched.Fixed n }
        in
        let r = Listsched.run ~options ?sb_stats fn block in
        incr runs;
        let last = if r.Listsched.pressure_bound then n else budgets in
        for m = n to last do
          cost.(m - 1) <- cost.(m - 1) + r.Listsched.length
        done;
        if last < budgets then sweep (n + 1)
      in
      sweep 1)
    fn.Mir.f_blocks;
  (cost, !runs)

(* keep the budget where the estimated cost stops improving *)
let p_rase_sweep =
  Pass.v "rase-sweep" (fun st fn ->
      let cost, runs = with_sb_stats st (fun sb -> rase_costs ~sb_stats:sb fn) in
      st.Pass.sched_passes <- st.Pass.sched_passes + runs;
      let best = ref 1 in
      for n = 2 to Array.length cost do
        if cost.(n - 1) < cost.(!best - 1) then best := n
      done;
      st.Pass.reg_budget <- Some !best)

(* prepass under the chosen budget communicates the schedule's register
   appetite to the allocator; pre-allocation, so oracle-free — see
   [p_ips_prepass] *)
let p_rase_prepass =
  Pass.v "rase-prepass" (fun st fn ->
      let budget = Option.value ~default:1 st.Pass.reg_budget in
      let options =
        { no_delay with Listsched.reg_limit = Listsched.Fixed budget }
      in
      ignore
        (with_sb_stats st (fun sb ->
             Listsched.schedule_func ~options ~sb_stats:sb fn));
      st.Pass.sched_passes <- st.Pass.sched_passes + count_blocks fn)

let p_frame =
  Pass.v ~post:Diag.Final "frame-layout" (fun _ fn -> Frame.layout fn)

let pipeline ?(disambig = true) = function
  | Naive ->
      [
        p_allocate_local; p_fill_delay; p_estimate_inorder ~disambig;
        p_frame;
      ]
  | Postpass ->
      [ p_allocate; p_schedule ~disambig; p_estimate ~disambig; p_frame ]
  | Ips ->
      [
        p_ips_prepass; p_allocate; p_schedule ~disambig;
        p_estimate ~disambig; p_frame;
      ]
  | Rase ->
      [
        p_rase_sweep; p_rase_prepass; p_allocate;
        p_schedule ~disambig; p_estimate ~disambig; p_frame;
      ]

(* The cache identity of a compile of [name] under a configuration. The
   pattern names every field of [config] (and of the verifier options)
   without a [; _], so a new field does not build until it is either
   keyed here or bound to [_] with the reason it cannot change a stored
   result. *)
let pipeline_key
    {
      check;
      check_options = { Mircheck.def_use; global_dataflow; hazard_replay };
      validate;
      disambig;
      jobs = _ (* outputs are bit-identical for every job count *);
      on_error = _ (* a degraded result is keyed by its own rung *);
      pass_timeout = _ (* can only fault a compile, as on_error above *);
      finject = _ (* functions a plan may target bypass the cache *);
    } name =
  Ckey.of_pipeline ~strategy:(to_string name)
    ~passes:
      (List.map (fun (p : Pass.t) -> p.Pass.name) (pipeline ~disambig name))
    ~check ~def_use ~global_dataflow ~hazard_replay ~validate ~disambig

(* ------------------------------------------------------------------ *)
(* Per-function compile units and the domain-parallel driver           *)
(* ------------------------------------------------------------------ *)

(* Everything one function's pipeline produced, self-contained so units
   can run on any domain and be merged deterministically in program
   order. Diagnostics and pass times are accumulated reversed (O(1)
   consing) and re-reversed once here. Pass times carry (wall seconds,
   this domain's CPU seconds) — see {!Mclock.thread_cpu}. *)
type unit_result = {
  u_stats : Pass.stats;
  u_diags : Diag.t list;  (* oldest-first *)
  u_vdiags : Diag.t list;  (* oldest-first *)
  u_times : (string * float * float) list;  (* oldest-first *)
  u_blocks : int;
  u_insts : int;
  u_events : Degrade.event list;  (* [] or one fault/degradation record *)
}

let count_insts (fn : Mir.func) =
  List.fold_left
    (fun acc (b : Mir.block) -> acc + List.length b.Mir.b_insts)
    0 fn.Mir.f_blocks

let compile_unit config strategy (fn : Mir.func) =
  let diags = ref [] in
  let vdiags = ref [] in
  let times = ref [] in
  let record pass ~wall ~cpu = times := (pass, wall, cpu) :: !times in
  let timed pass f =
    let t0 = Mclock.wall () and c0 = Mclock.thread_cpu () in
    let r = f () in
    record pass ~wall:(Mclock.wall () -. t0) ~cpu:(Mclock.thread_cpu () -. c0);
    r
  in
  (* errors abort the compile ({!Diag.Check_error}); the rest is kept *)
  let keep_or_raise acc ds =
    match Diag.errors ds with
    | [] -> acc := List.rev_append ds !acc
    | errs -> raise (Diag.Check_error errs)
  in
  (* [verify phase fn] re-checks the invariants the phase just claimed to
     establish; warnings accumulate into the report. The identity when
     checking is off. *)
  let verify phase fn =
    if config.check then
      keep_or_raise diags
        (timed
           ("verify:" ^ Diag.phase_name phase)
           (fun () ->
             Mircheck.check_func ~options:config.check_options phase fn))
  in
  (* [snapshot]/[validate] bracket every pass claiming a validated phase:
     capture an independent copy of the function before the pass, then run
     the phase's translation validator (Transval) on the (input, output)
     pair. Both halves time themselves into "validate:" profile entries. *)
  let snapshot phase fn =
    if config.validate && Transval.validated_phase phase then
      Some
        (timed
           ("validate:capture:" ^ Diag.phase_name phase)
           (fun () -> Transval.capture fn))
    else None
  in
  (* an analysis in [st] was computed during this pass's body, i.e. from
     exactly the state [before] captures *)
  let validate (st : Pass.stats) phase ~before fn =
    keep_or_raise vdiags
      (timed
         ("validate:" ^ Diag.phase_name phase)
         (fun () ->
           Transval.validate_func ~disambig:config.disambig
             ?analysis:st.Pass.analysis phase ~before fn))
  in
  verify Diag.Post_select fn;
  (* the guard closes over this function's name and the rung being run;
     the trivial configuration installs no guard at all, so the default
     path is the seed path *)
  let guard =
    if robust_trivial config then None
    else
      Some
        (fun (p : Pass.t) body ->
          Guard.protect ~fn:fn.Mir.f_name ~strategy:(to_string strategy)
            ~pass:p.Pass.name ?deadline_ms:config.pass_timeout
            ?inject:
              (Finject.arm config.finject ~pass:p.Pass.name ~fn:fn.Mir.f_name)
            body)
  in
  let st =
    Pass.run_pipeline ?guard ~verify ~snapshot ~validate ~record
      (pipeline ~disambig:config.disambig strategy)
      fn
  in
  {
    u_stats = st;
    u_diags = List.rev !diags;
    u_vdiags = List.rev !vdiags;
    u_times = List.rev !times;
    u_blocks = count_blocks fn;
    u_insts = count_insts fn;
    u_events = [];
  }

(* ------------------------------------------------------------------ *)
(* The degradation ladder driver                                       *)
(* ------------------------------------------------------------------ *)

(* a pristine, fully independent copy of a function for ladder retries:
   Transval.capture copies blocks and instruction operand arrays, and the
   slot-offset table is copied on top — frame layout on one attempt must
   not leak offsets into another *)
let snapshot_func (fn : Mir.func) =
  {
    (Transval.capture fn) with
    Mir.f_slot_offsets = Hashtbl.copy fn.Mir.f_slot_offsets;
  }

(* copy a winning retry's mutable state back into the original function
   object, for callers (Strategy.apply) whose contract is rewriting the
   program in place *)
let splice ~into:(dst : Mir.func) (src : Mir.func) =
  dst.Mir.f_blocks <- src.Mir.f_blocks;
  dst.Mir.f_frame_size <- src.Mir.f_frame_size;
  dst.Mir.f_next_preg <- src.Mir.f_next_preg;
  dst.Mir.f_next_inst <- src.Mir.f_next_inst;
  dst.Mir.f_saved <- src.Mir.f_saved;
  dst.Mir.f_slots <- src.Mir.f_slots;
  dst.Mir.f_next_slot <- src.Mir.f_next_slot;
  dst.Mir.f_has_calls <- src.Mir.f_has_calls;
  dst.Mir.f_locations <- src.Mir.f_locations;
  Hashtbl.reset dst.Mir.f_slot_offsets;
  Hashtbl.iter
    (Hashtbl.replace dst.Mir.f_slot_offsets)
    src.Mir.f_slot_offsets

(* a skipped function contributes its shape to the profile but no pass
   work: it is left at its pristine pre-pipeline state *)
let skipped_unit fn events =
  {
    u_stats = Pass.fresh_stats ();
    u_diags = [];
    u_vdiags = [];
    u_times = [];
    u_blocks = count_blocks fn;
    u_insts = count_insts fn;
    u_events = events;
  }

(* [compile_fn config strategy fn] runs the strategy's pipeline on [fn]
   under the configuration's robust policy. Returns the unit (faults and
   resolution in [u_events]), the function that made it into the
   program, and the rung that produced it. That function is [fn] itself
   unless a retry won: under a non-trivial policy [fn]'s pristine
   pre-pipeline state is snapshotted first, and every retry starts from
   an independent copy of it, so a faulted attempt's half-rewritten state
   can never leak into the next rung.

   Under [`Abort] the original exception is re-raised with its original
   backtrace — bit- and trace-identical to a compiler without the robust
   layer. Under [`Degrade] the ladder walks Rase -> Ips -> Postpass ->
   Naive, recompiling only this function; under [`Skip], or when the
   ladder is exhausted, the function is given up at its pristine state
   and marked skipped. *)
let compile_fn config strategy fn =
  if robust_trivial config then (compile_unit config strategy fn, fn, strategy)
  else
    let pristine = snapshot_func fn in
    let first = ref true in
    let fresh () =
      if !first then begin
        first := false;
        fn
      end
      else snapshot_func pristine
    in
    let rec attempt rung faults =
      let fn = fresh () in
      match compile_unit config rung fn with
      | u ->
          let events =
            match faults with
            | [] -> []
            | fs ->
                [
                  {
                    Degrade.d_func = fn.Mir.f_name;
                    d_from = to_string strategy;
                    d_faults = List.rev fs;
                    d_resolution = Degrade.Degraded (to_string rung);
                  };
                ]
          in
          ({ u with u_events = events }, fn, rung)
      | exception Guard.Trip f -> faulted rung faults f
      | exception Diag.Check_error ds when config.on_error <> `Abort ->
          (* verifier/validator errors trap like pass faults; under
             [`Abort] they propagate untouched, exactly as before *)
          faulted rung faults
            (Fault.of_check ~func:fn.Mir.f_name ~strategy:(to_string rung)
               ds)
    and faulted rung faults f =
      match config.on_error with
      | `Abort -> (
          match f.Fault.f_exn with
          | Some (e, bt) -> Printexc.raise_with_backtrace e bt
          | None -> raise (Guard.Trip f))
      | `Skip -> skip (f :: faults)
      | `Degrade -> (
          match degrade_next rung with
          | Some r -> attempt r (f :: faults)
          | None -> skip (f :: faults))
    and skip faults =
      let fn = fresh () in
      let event =
        {
          Degrade.d_func = fn.Mir.f_name;
          d_from = to_string strategy;
          d_faults = List.rev faults;
          d_resolution = Degrade.Skipped;
        }
      in
      (skipped_unit fn [ event ], fn, strategy)
    in
    attempt strategy []

(* deterministic merge: fold the units in program order. Estimates are
   [Hashtbl.replace]d in recording order so a label reused by a later
   function wins, exactly as in a sequential compile; diagnostics are
   accumulated reversed and re-reversed once at the end. *)
let merge_units prof strategy units : report =
  let spilled = ref 0 and passes = ref 0 in
  let estimates = Hashtbl.create 64 in
  let diags = ref [] in
  let vdiags = ref [] in
  let events = ref [] in
  List.iter
    (fun u ->
      spilled := !spilled + u.u_stats.Pass.spilled;
      passes := !passes + u.u_stats.Pass.sched_passes;
      prof.Profile.p_sb_probes <-
        prof.Profile.p_sb_probes + u.u_stats.Pass.sb_probes;
      prof.Profile.p_sb_conflicts <-
        prof.Profile.p_sb_conflicts + u.u_stats.Pass.sb_conflicts;
      prof.Profile.p_sb_reserves <-
        prof.Profile.p_sb_reserves + u.u_stats.Pass.sb_reserves;
      prof.Profile.p_an_time <-
        prof.Profile.p_an_time +. u.u_stats.Pass.an_time;
      prof.Profile.p_an_solves <-
        prof.Profile.p_an_solves + u.u_stats.Pass.an_solves;
      prof.Profile.p_an_iters <-
        prof.Profile.p_an_iters + u.u_stats.Pass.an_iters;
      prof.Profile.p_an_facts <-
        prof.Profile.p_an_facts + u.u_stats.Pass.an_facts;
      prof.Profile.p_an_queries <-
        prof.Profile.p_an_queries + u.u_stats.Pass.an_queries;
      prof.Profile.p_an_pruned <-
        prof.Profile.p_an_pruned + u.u_stats.Pass.an_pruned;
      prof.Profile.p_dag_nodes <-
        prof.Profile.p_dag_nodes + u.u_stats.Pass.dag_nodes;
      prof.Profile.p_dag_edges <-
        prof.Profile.p_dag_edges + u.u_stats.Pass.dag_edges;
      List.iter
        (fun (label, len) -> Hashtbl.replace estimates label len)
        u.u_stats.Pass.estimates;
      diags := List.rev_append u.u_diags !diags;
      vdiags := List.rev_append u.u_vdiags !vdiags;
      List.iter
        (fun (pass, wall, cpu) -> Profile.add ~cpu prof pass wall)
        u.u_times;
      prof.Profile.p_funcs <- prof.Profile.p_funcs + 1;
      prof.Profile.p_blocks <- prof.Profile.p_blocks + u.u_blocks;
      prof.Profile.p_insts <- prof.Profile.p_insts + u.u_insts;
      List.iter
        (fun (e : Degrade.event) ->
          prof.Profile.p_faults <-
            prof.Profile.p_faults + List.length e.Degrade.d_faults;
          match e.Degrade.d_resolution with
          | Degrade.Degraded _ ->
              prof.Profile.p_degraded <- prof.Profile.p_degraded + 1
          | Degrade.Skipped ->
              prof.Profile.p_skipped <- prof.Profile.p_skipped + 1)
        u.u_events;
      events := List.rev_append u.u_events !events)
    units;
  prof.Profile.p_spilled <- prof.Profile.p_spilled + !spilled;
  prof.Profile.p_schedule_passes <-
    prof.Profile.p_schedule_passes + !passes;
  {
    strategy;
    spilled = !spilled;
    block_estimates = estimates;
    schedule_passes = !passes;
    check_diags = List.rev !diags;
    validate_diags = List.rev !vdiags;
    faults = List.rev !events;
    profile = prof;
  }

let apply ?(config = default_config) ?profile strategy (prog : Mir.prog) :
    report =
  let w0 = Mclock.wall () and c0 = Mclock.cpu () in
  let prof =
    match profile with
    | Some p -> p
    | None -> Profile.create ~jobs:config.jobs ~strategy:(to_string strategy) ()
  in
  (* fan the per-function units out over the domain pool; results come
     back in program order whatever the completion order. A ladder retry
     that won is spliced back into the original object, preserving
     apply's rewrite-in-place contract. *)
  let units =
    Dpool.map ~jobs:config.jobs
      (fun fn ->
        let u, final, _rung = compile_fn config strategy fn in
        if final != fn then splice ~into:fn final;
        u)
      prog.Mir.p_funcs
  in
  let report = merge_units prof strategy units in
  (* when called standalone, the profile's total is apply's own span; a
     caller that passed a profile in owns the totals *)
  if profile = None then begin
    prof.Profile.p_wall <- Mclock.wall () -. w0;
    prof.Profile.p_cpu <- Mclock.cpu () -. c0
  end;
  report

(* ------------------------------------------------------------------ *)
(* Whole-program compilation                                           *)
(* ------------------------------------------------------------------ *)

(* Linting is a pure function of the machine model: memoize by the
   model's content digest ({!Ckey.of_model}) so a driver (or benchmark)
   compiling many programs against one description lints it once, not
   per compile — including when the "one" description is re-parsed into
   a structurally equal model each time, which a physical-identity key
   would miss forever. The cache is a tiny move-to-front LRU (hits
   re-front their entry, so the hottest models survive the keep-7
   truncation) and mutex-guarded so parallel compiles against one model
   still lint it exactly once. *)
let lint_mutex = Mutex.create ()

let lint_cache : (Ckey.t * Diag.t list) list ref = ref []

let lint_model model =
  let key = Ckey.of_model model in
  Mutex.lock lint_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock lint_mutex)
    (fun () ->
      match List.assoc_opt key !lint_cache with
      | Some ds ->
          lint_cache :=
            (key, ds) :: List.filter (fun (k, _) -> k <> key) !lint_cache;
          ds
      | None ->
          let ds = Marilint.lint model in
          let keep = List.filteri (fun i _ -> i < 7) !lint_cache in
          lint_cache := (key, ds) :: keep;
          ds)

let compile ?(config = default_config) ?cache model strategy (ir : Ir.prog) =
  let w0 = Mclock.wall () and c0 = Mclock.cpu () in
  let prof =
    Profile.create ~jobs:config.jobs ~strategy:(to_string strategy) ()
  in
  let lint_warnings =
    if config.check then begin
      let t0 = Mclock.wall () and tc0 = Mclock.thread_cpu () in
      let ds = Diag.raise_if_errors (lint_model model) in
      Profile.add
        ~cpu:(Mclock.thread_cpu () -. tc0)
        prof "lint"
        (Mclock.wall () -. t0);
      ds
    end
    else []
  in
  (* glue rewrites the IL in place for this model, sequentially, before
     anything is digested or fanned out: the cache key must name the
     trees the selector will actually see *)
  let t_glue = Mclock.wall () and c_glue = Mclock.thread_cpu () in
  List.iter (Glue.transform_func model) ir.Ir.funcs;
  Profile.add
    ~cpu:(Mclock.thread_cpu () -. c_glue)
    prof "glue"
    (Mclock.wall () -. t_glue);
  (* the cache key components shared by every function of this compile:
     model digest and pipeline identity. A fallback rung's result is
     keyed by that rung's identity: a degraded result must never be
     stored under — or answer for — the original strategy's key *)
  let pipeline_digest = pipeline_key config strategy in
  let rung_digest rung =
    if rung = strategy then pipeline_digest else pipeline_key config rung
  in
  let model_digest =
    match cache with Some _ -> Ckey.of_model model | None -> ""
  in
  let cache_before = Option.map Cache.counters cache in
  (* one unit per function: selection plus the strategy pipeline (with
     ladder retries when a robust policy is active), or a cache replay.
     Units share no mutable state, so they fan out over the domain pool;
     results merge in program order. *)
  let compile_one (irfn : Ir.func) =
    let select_and_run () =
      let t0 = Mclock.wall () and tc0 = Mclock.thread_cpu () in
      let fn = Select.select_func model irfn in
      let w = Mclock.wall () -. t0 and c = Mclock.thread_cpu () -. tc0 in
      let u, fn, rung = compile_fn config strategy fn in
      ({ u with u_times = ("select", w, c) :: u.u_times }, fn, rung)
    in
    match cache with
    | None ->
        let u, fn, _ = select_and_run () in
        (u, fn, `Off)
    | Some c -> (
        let il_digest = Ckey.of_ir_func irfn in
        (* a stored entry is always a clean single-rung compile: a
           degraded result goes under the rung that produced it, and a
           skipped function is never stored at all *)
        let store_result u fn rung =
          let gave_up =
            List.exists
              (fun (e : Degrade.event) ->
                e.Degrade.d_resolution = Degrade.Skipped)
              u.u_events
          in
          if not gave_up then
            Cache.store c
              ~key:
                (Ckey.combine [ il_digest; model_digest; rung_digest rung ])
              {
                Cache.c_func = fn;
                c_stats = u.u_stats;
                c_diags = u.u_diags;
                c_vdiags = u.u_vdiags;
                c_insts = u.u_insts;
              }
        in
        if
          (not (robust_trivial config))
          && Finject.may_target config.finject ~fn:irfn.Ir.fn_name
        then begin
          (* a warm hit would replay a result without crossing the pass
             boundaries the plan plants faults at, silently neutralising
             the injection — bypass lookup for any function the plan may
             target (counted as neither hit nor miss) *)
          let u, fn, rung = select_and_run () in
          store_result u fn rung;
          (u, fn, `Off)
        end
        else
          let key =
            Ckey.combine [ il_digest; model_digest; pipeline_digest ]
          in
          let t0 = Mclock.wall () and tc0 = Mclock.thread_cpu () in
          match Cache.find c model ~key with
          | Some p ->
              (* warm replay: the cached function and the deterministic
                 report parts, plus one synthetic profile entry marking
                 the function as served from the cache *)
              let u =
                {
                  u_stats = p.Cache.c_stats;
                  u_diags = p.Cache.c_diags;
                  u_vdiags = p.Cache.c_vdiags;
                  u_times =
                    [
                      ( "cached",
                        Mclock.wall () -. t0,
                        Mclock.thread_cpu () -. tc0 );
                    ];
                  u_blocks = count_blocks p.Cache.c_func;
                  u_insts = p.Cache.c_insts;
                  u_events = [];
                }
              in
              (u, p.Cache.c_func, `Hit)
          | None ->
              let u, fn, rung = select_and_run () in
              store_result u fn rung;
              (u, fn, `Miss))
  in
  let results = Dpool.map ~jobs:config.jobs compile_one ir.Ir.funcs in
  let prog =
    {
      Mir.p_model = model;
      p_globals =
        List.map
          (fun (g : Ir.global) ->
            {
              Mir.g_name = g.Ir.gl_name;
              g_align = g.Ir.gl_align;
              g_bytes = g.Ir.gl_bytes;
            })
          ir.Ir.globals;
      p_funcs = List.map (fun (_, fn, _) -> fn) results;
    }
  in
  let report =
    merge_units prof strategy (List.map (fun (u, _, _) -> u) results)
  in
  (match (cache, cache_before) with
  | Some c, Some before ->
      prof.Profile.p_cache_used <- true;
      List.iter
        (fun (_, _, outcome) ->
          match outcome with
          | `Hit -> prof.Profile.p_cache_hits <- prof.Profile.p_cache_hits + 1
          | `Miss ->
              prof.Profile.p_cache_misses <- prof.Profile.p_cache_misses + 1
          | `Off -> ())
        results;
      (* evictions and staleness happen inside the cache; attribute the
         delta over this compile (approximate if other compiles share
         the cache concurrently) *)
      let after = Cache.counters c in
      prof.Profile.p_cache_evictions <-
        prof.Profile.p_cache_evictions
        + (after.Cache.evictions - before.Cache.evictions);
      prof.Profile.p_cache_stale <-
        prof.Profile.p_cache_stale + (after.Cache.stale - before.Cache.stale)
  | _ -> ());
  prof.Profile.p_wall <- Mclock.wall () -. w0;
  prof.Profile.p_cpu <- Mclock.cpu () -. c0;
  (prog, { report with check_diags = lint_warnings @ report.check_diags })
