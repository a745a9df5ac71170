(* Phase-aware MIR verifier; see mircheck.mli.

   Deliberately an independent re-implementation of the structural rules
   the selector, allocator, scheduler and simulator share: it re-derives
   everything from the machine model ({!Model.t}) and the raw MIR, so a
   bug in any one phase shows up as a disagreement here rather than as a
   silent miscompile. *)

type options = {
  def_use : bool;
  global_dataflow : bool;
  hazard_replay : bool;
}

let default_options =
  { def_use = true; global_dataflow = true; hazard_replay = false }

let rank = function
  | Diag.Post_select -> 0
  | Diag.Post_regalloc -> 1
  | Diag.Post_sched -> 2
  | Diag.Final -> 3

let at_least phase p = rank phase >= rank p

(* ------------------------------------------------------------------ *)
(* Model helpers (guarded: the verifier must survive malformed input) *)

let class_valid = Locs.class_valid

let reg_valid = Locs.reg_valid

let class_name model cid =
  if class_valid model cid then (Model.class_exn model cid).Model.c_name
  else Printf.sprintf "<class#%d>" cid

let reg_name model (r : Model.reg) =
  if reg_valid model r then Format.asprintf "%a" (Model.pp_reg model) r
  else Printf.sprintf "%s[%d]" (class_name model r.Model.cls) r.Model.idx

let preg_name (p : Mir.preg) =
  match p.Mir.p_name with
  | Some n -> Printf.sprintf "%%%d(%s)" p.Mir.p_id n
  | None -> Printf.sprintf "%%%d" p.Mir.p_id

let is_term (op : Model.instr) = op.Model.i_branch && not op.Model.i_call

(* ------------------------------------------------------------------ *)
(* definitely-assigned dataflow (M031) *)

(* Keys form a dense space so the sets can be bit vectors: one key per
   byte of every register bank (so %equiv pairs interact correctly),
   then one key per pseudo-register. The dense layout matters: the
   fixpoint runs at every phase point of every compile, and word-wise
   set operations keep its cost a few percent of back-end time. *)
type keyspace = { bank_base : int array; nphys : int; cap : int }

let keyspace model (fn : Mir.func) =
  let banks = model.Model.banks in
  let bank_base = Array.make (Array.length banks) 0 in
  let acc = ref 0 in
  Array.iteri
    (fun i n ->
      bank_base.(i) <- !acc;
      acc := !acc + n)
    banks;
  { bank_base; nphys = !acc; cap = !acc + fn.Mir.f_next_preg + 1 }

let preg_key ks (p : Mir.preg) = ks.nphys + p.Mir.p_id

(* mark every storage byte of [r] as assigned *)
let set_reg ks model set (r : Model.reg) =
  if reg_valid model r then begin
    let bank, off, size = Model.reg_bytes model r in
    Bitset.set_range set (ks.bank_base.(bank) + off) size
  end

(* are all storage bytes of [r] assigned? *)
let reg_assigned ks model set (r : Model.reg) =
  let bank, off, size = Model.reg_bytes model r in
  Bitset.mem_range set (ks.bank_base.(bank) + off) size

(* the registers the calling convention guarantees are meaningful on
   function entry: the CWVM environment *)
let entry_seed ks model =
  let cw = model.Model.cwvm in
  let regs =
    [ cw.Model.v_sp; cw.Model.v_fp; cw.Model.v_retaddr ]
    @ (match cw.Model.v_gp with Some g -> [ g ] | None -> [])
    @ List.map fst cw.Model.v_hard
    @ List.map (fun (_, r, _) -> r) cw.Model.v_args
    @ cw.Model.v_calleesave
    @ List.map fst cw.Model.v_results
  in
  let s = Bitset.create ks.cap in
  List.iter (fun r -> set_reg ks model s r) regs;
  s

(* record one instruction's defs into [set] (clobbers count: the bytes
   hold *a* value afterwards, which is all M031 asks). The operand walk
   reads [i_writes] directly rather than going through {!Mir.inst_defs},
   which would build a fresh list per call: this runs on every
   instruction at every phase point. *)
let add_inst_defs ks model set (i : Mir.inst) =
  let nops = Array.length i.Mir.n_ops in
  List.iter
    (fun j ->
      if j >= 0 && j < nops then
        match Mir.operand_reg i.Mir.n_ops.(j) with
        | Some (`Preg p) -> Bitset.set set (preg_key ks p)
        | Some (`Phys r) -> set_reg ks model set r
        | None -> ())
    i.Mir.n_op.Model.i_writes;
  List.iter (set_reg ks model set) i.Mir.n_xdef;
  List.iter
    (fun c -> set_reg ks model set (Locs.named_reg model c))
    i.Mir.n_op.Model.i_wnames

(* uses to check: explicit register operands and implicit xuses.
   Temporal latches are excluded (M043/M044 govern them); named-class
   reads (condition codes and the like) are excluded too, because they
   live outside the allocation discipline. [missing] is only invoked on
   a finding: this runs on every use of every instruction at every
   phase, so the common path must not allocate. *)
let iter_unassigned_uses ks model set ~missing (i : Mir.inst) =
  let phys r =
    if
      reg_valid model r
      && (match Locs.temporal_clock model r with Some _ -> false | None -> true)
      && not (reg_assigned ks model set r)
    then missing (`Phys r)
  in
  let nops = Array.length i.Mir.n_ops in
  List.iter
    (fun j ->
      if j >= 0 && j < nops then
        match Mir.operand_reg i.Mir.n_ops.(j) with
        | Some (`Preg p) ->
            if not (Bitset.mem set (preg_key ks p)) then missing (`Preg p)
        | Some (`Phys r) -> phys r
        | None -> ())
    i.Mir.n_op.Model.i_reads;
  List.iter phys i.Mir.n_xuse

let use_name model = function
  | `Preg p -> preg_name p
  | `Phys r -> reg_name model r

(* ------------------------------------------------------------------ *)

let check_func ?(options = default_options) phase (fn : Mir.func) :
    Diag.t list =
  let model = fn.Mir.f_model in
  let diags = ref [] in
  let report ?severity ?loc ?block ~code fmt =
    Format.kasprintf
      (fun msg ->
        diags :=
          Diag.make ?severity ~phase ?loc ~func:fn.Mir.f_name ?block ~code
            msg
          :: !diags)
      fmt
  in

  (* ---------------- CFG: labels and successors ---------------- *)
  let labels = Hashtbl.create 16 in
  List.iter
    (fun (b : Mir.block) ->
      if Hashtbl.mem labels b.Mir.b_label then
        report ~block:b.Mir.b_label ~code:"M011" "duplicate block label"
      else Hashtbl.add labels b.Mir.b_label b)
    fn.Mir.f_blocks;
  List.iter
    (fun (b : Mir.block) ->
      List.iter
        (fun s ->
          if not (Hashtbl.mem labels s) then
            report ~block:b.Mir.b_label ~code:"M012"
              "successor %s is not a block of this function" s)
        b.Mir.b_succs)
    fn.Mir.f_blocks;

  (* ---------------- operand shapes ---------------- *)
  let check_phys_valid ~loc ~block what (r : Model.reg) =
    if not (reg_valid model r) then
      report ~loc ~block ~code:"M006" "%s names no machine register: %s"
        what (reg_name model r)
  in
  (* structural validity of one operand tree, phase discipline included *)
  let rec scan_operand ~loc ~block iname = function
    | Mir.Opreg p ->
        if at_least phase Diag.Post_regalloc then
          report ~loc ~block ~code:"M021"
            "%s still carries pseudo-register %s after allocation" iname
            (preg_name p)
    | Mir.Opart (inner, k) ->
        if at_least phase Diag.Post_regalloc then
          report ~loc ~block ~code:"M022"
            "%s carries an unresolved register part (.part%d) after \
             allocation"
            iname k;
        scan_operand ~loc ~block iname inner
    | Mir.Oslot (id, _) ->
        if phase = Diag.Final then
          report ~loc ~block ~code:"M023"
            "%s still refers to frame slot %d after frame layout" iname id
    | Mir.Ophys r -> check_phys_valid ~loc ~block (iname ^ " operand") r
    | Mir.Oimm _ | Mir.Osym _ | Mir.Olab _ -> ()
  in
  (* the register class at the root of a register operand, if any *)
  let operand_class op =
    match Mir.operand_reg op with
    | Some (`Preg p) -> Some p.Mir.p_cls
    | Some (`Phys r) -> Some r.Model.cls
    | None -> None
  in
  let check_kind ~loc ~block (i : Mir.inst) j kind op =
    let iname = i.Mir.n_op.Model.i_name in
    let mismatch expected =
      report ~loc ~block ~code:"M002"
        "%s operand %d: expected %s, found %a" iname (j + 1) expected
        (Mir.pp_operand model) op
    in
    match (kind, op) with
    | Model.Kreg c, Mir.Opreg p ->
        if p.Mir.p_cls <> c then
          report ~loc ~block ~code:"M002"
            "%s operand %d: class %s expected, pseudo %s has class %s"
            iname (j + 1) (class_name model c) (preg_name p)
            (class_name model p.Mir.p_cls)
    | Model.Kreg c, Mir.Ophys r ->
        if reg_valid model r && r.Model.cls <> c then
          report ~loc ~block ~code:"M002"
            "%s operand %d: class %s expected, register %s has class %s"
            iname (j + 1) (class_name model c) (reg_name model r)
            (class_name model r.Model.cls)
    | Model.Kreg c, Mir.Opart (inner, k) -> (
        (* a part operand stands for the k-th half of its root: the
           expected class must be half the root's width in the same
           bank (how Model.subreg will resolve it) *)
        if k <> 0 && k <> 1 then
          report ~loc ~block ~code:"M002"
            "%s operand %d: register part index %d out of range" iname
            (j + 1) k;
        match operand_class inner with
        | Some rc when class_valid model rc && class_valid model c ->
            let rcc = Model.class_exn model rc
            and ecc = Model.class_exn model c in
            if
              2 * ecc.Model.c_size <> rcc.Model.c_size
              || ecc.Model.c_bank <> rcc.Model.c_bank
            then
              report ~loc ~block ~code:"M002"
                "%s operand %d: part of a %s register cannot lie in \
                 class %s"
                iname (j + 1) rcc.Model.c_name ecc.Model.c_name
        | Some _ -> () (* M006 already reported on the root *)
        | None -> mismatch "a register part rooted in a register")
    | Model.Kreg c, (Mir.Oimm _ | Mir.Oslot _ | Mir.Osym _ | Mir.Olab _)
      ->
        mismatch (Printf.sprintf "a register of class %s" (class_name model c))
    | Model.Kregfix r, Mir.Ophys r' ->
        if not (Model.reg_equal r r') then
          report ~loc ~block ~code:"M003"
            "%s operand %d: fixed register %s expected, found %s" iname
            (j + 1) (reg_name model r) (reg_name model r')
    | Model.Kregfix r, _ ->
        report ~loc ~block ~code:"M003"
          "%s operand %d: fixed register %s expected, found %a" iname
          (j + 1) (reg_name model r) (Mir.pp_operand model) op
    | Model.Kimm d, Mir.Oimm v ->
        let def = model.Model.defs.(d) in
        if v < def.Model.d_lo || v > def.Model.d_hi then
          report ~loc ~block ~code:"M004"
            "%s operand %d: immediate %d outside %%def %s range %d..%d"
            iname (j + 1) v def.Model.d_name def.Model.d_lo def.Model.d_hi
    | Model.Kimm d, Mir.Osym (s, _) ->
        let def = model.Model.defs.(d) in
        if not (List.mem Ast.Fabs def.Model.d_flags) then
          report ~loc ~block ~code:"M004"
            "%s operand %d: symbol %s bound to %%def %s, which is not \
             declared +abs"
            iname (j + 1) s def.Model.d_name
    | Model.Kimm _, Mir.Oslot _ ->
        (* legal until frame layout resolves it; M023 polices Final *)
        ()
    | Model.Kimm _, (Mir.Opreg _ | Mir.Ophys _ | Mir.Opart _ | Mir.Olab _)
      ->
        mismatch "an immediate"
    | Model.Klab _, Mir.Olab l ->
        if not (Hashtbl.mem labels l) then
          report ~loc ~block ~code:"M005"
            "%s operand %d: label %s does not name a block of %s" iname
            (j + 1) l fn.Mir.f_name
    | Model.Klab _, Mir.Osym _ ->
        (* cross-function target (calls); resolved at load time *)
        ()
    | Model.Klab _, (Mir.Opreg _ | Mir.Ophys _ | Mir.Opart _ | Mir.Oimm _
      | Mir.Oslot _) ->
        mismatch "a code label"
  in
  let check_inst ~block (i : Mir.inst) =
    let op = i.Mir.n_op in
    let loc = op.Model.i_loc in
    let nk = Array.length op.Model.i_opnds
    and no = Array.length i.Mir.n_ops in
    if nk <> no then
      report ~loc ~block ~code:"M001"
        "%s carries %d operands, description declares %d" op.Model.i_name
        no nk;
    for j = 0 to min nk no - 1 do
      check_kind ~loc ~block i j op.Model.i_opnds.(j) i.Mir.n_ops.(j)
    done;
    Array.iter (scan_operand ~loc ~block op.Model.i_name) i.Mir.n_ops;
    List.iter
      (check_phys_valid ~loc ~block (op.Model.i_name ^ " implicit use"))
      i.Mir.n_xuse;
    List.iter
      (check_phys_valid ~loc ~block (op.Model.i_name ^ " implicit def"))
      i.Mir.n_xdef
  in
  List.iter
    (fun (b : Mir.block) ->
      List.iter (check_inst ~block:b.Mir.b_label) b.Mir.b_insts)
    fn.Mir.f_blocks;

  (* ---------------- terminators and delay slots ---------------- *)
  let check_layout (b : Mir.block) =
    let block = b.Mir.b_label in
    let arr = Array.of_list b.Mir.b_insts in
    let n = Array.length arr in
    for i = 0 to n - 1 do
      let op = arr.(i).Mir.n_op in
      if op.Model.i_branch then begin
        let slots = abs op.Model.i_slots in
        if at_least phase Diag.Post_sched && slots > 0 then begin
          let have = min slots (n - 1 - i) in
          if have < slots then
            report ~loc:op.Model.i_loc ~block ~code:"M041"
              "%s: only %d of %d delay slot(s) filled" op.Model.i_name
              have slots;
          for k = i + 1 to i + have do
            if arr.(k).Mir.n_op.Model.i_branch then
              report ~loc:arr.(k).Mir.n_op.Model.i_loc ~block ~code:"M042"
                "branch %s sits in a delay slot of %s"
                arr.(k).Mir.n_op.Model.i_name op.Model.i_name
          done
        end;
        if is_term op then begin
          let allowed =
            if at_least phase Diag.Post_sched then slots else 0
          in
          let extra = n - 1 - i - allowed in
          if extra > 0 then
            report ~block ~code:"M013"
              "%d instruction(s) after terminator %s (beyond its %d \
               delay slot(s))"
              extra op.Model.i_name allowed
        end
      end
    done
  in
  List.iter check_layout fn.Mir.f_blocks;

  (* ---------------- EAP temporal discipline (paper 4.6) -------- *)
  (* Per block, in issue order: a write into a temporal latch opens an
     edge that the next read of that latch closes. While an edge on
     clock k is open, no other instruction affecting k may appear
     (Rule 1), and no read may name a latch never launched here. *)
  let check_temporal (b : Mir.block) =
    let block = b.Mir.b_label in
    let tw = Temporal.create model in
    List.iter
      (fun (i : Mir.inst) ->
        let iname = i.Mir.n_op.Model.i_name in
        let loc = i.Mir.n_op.Model.i_loc in
        let reads = Temporal.latches model (Locs.reads model i)
        and writes = Temporal.latches model (Locs.writes model i) in
        (* reads catch their latch, closing the window *)
        List.iter
          (fun (_, r) ->
            if Temporal.catch tw r = [] then
              report ~loc ~block ~code:"M044"
                "%s reads temporal latch %s, which no instruction in \
                 this block has launched"
                iname (reg_name model r))
          reads;
        (* Rule 1: with a window still open on clock k, only its catch may
           advance k -- and the catches just ran above *)
        (match i.Mir.n_op.Model.i_affects with
        | Some k -> (
            match Temporal.blocking tw ~clock:k with
            | Some w ->
                report ~loc ~block ~code:"M043"
                  "%s advances clock %s while %s launched into latch %s \
                   still awaits its catch"
                  iname
                  model.Model.clocks.(k)
                  w.Temporal.w_launcher
                  (reg_name model w.Temporal.w_latch)
            | None -> ())
        | None -> ());
        (* writes open a fresh window, superseding any stale one *)
        List.iter
          (fun (k, r) -> Temporal.launch tw ~clock:k r ~launcher:iname)
          writes)
      b.Mir.b_insts
  in
  if Temporal.has_temporal model then
    List.iter check_temporal fn.Mir.f_blocks;

  (* ---------------- def-before-use (M031) ---------------- *)
  (* a forward dataflow client, meet = intersection: blocks the entry
     reaches no fact from carry no obligations *)
  (if options.def_use then begin
     let ks = keyspace model fn in
     let seed = entry_seed ks model in
     let module S = Dataflow.Solve (struct
       type fact = Bitset.t

       let direction = Dataflow.Forward

       let init _ (b : Mir.block) =
         match fn.Mir.f_blocks with
         | entry :: _ when entry.Mir.b_label = b.Mir.b_label -> Some seed
         | _ -> None

       let equal = Bitset.equal

       let join a b =
         let m = Bitset.copy a in
         Bitset.inter_into ~dst:m b;
         m

       let transfer _ (b : Mir.block) s =
         let s = Bitset.copy s in
         List.iter (add_inst_defs ks model s) b.Mir.b_insts;
         s

       let nfacts = Bitset.cardinal
     end) in
     let assigned = S.solve fn in
     (* walk each reached block, checking uses before defs *)
     List.iter
       (fun (b : Mir.block) ->
         match S.flow_in assigned b.Mir.b_label with
         | None -> ()
         | Some s0 ->
             let cur = Bitset.copy s0 in
             List.iter
               (fun (i : Mir.inst) ->
                 iter_unassigned_uses ks model cur
                   ~missing:(fun use ->
                     report ~loc:i.Mir.n_op.Model.i_loc ~block:b.Mir.b_label
                       ~code:"M031"
                       "%s reads %s, which is not assigned on every path \
                        from function entry"
                       i.Mir.n_op.Model.i_name (use_name model use))
                   i;
                 add_inst_defs ks model cur i)
               b.Mir.b_insts)
       fn.Mir.f_blocks
   end);

  (* -------- global dataflow diagnostics (A001/A002, warnings) ------- *)
  (* Post_select only: pseudo-registers exist there, and later phases
     would re-report facts the allocator has already consumed. Both are
     warnings from the liveness the allocator also reads: A001 overlaps
     M031's error (the definitely-assigned analysis), but reports per
     pseudo with its live-in path; A002 has no M-series counterpart. *)
  (if options.global_dataflow && phase = Diag.Post_select then begin
     let live = Liveness.compute fn in
     List.iter
       (fun (u : Liveness.uninit) ->
         report ~severity:Diag.Warning
           ~loc:u.Liveness.u_inst.Mir.n_op.Model.i_loc
           ~block:u.Liveness.u_block ~code:"A001"
           "%s is live into the function entry: it may be used before \
            being assigned"
           (preg_name u.Liveness.u_preg))
       (Liveness.uninitialized live fn);
     List.iter
       (fun (d : Liveness.dead) ->
         report ~severity:Diag.Warning
           ~loc:d.Liveness.k_inst.Mir.n_op.Model.i_loc
           ~block:d.Liveness.k_block ~code:"A002"
           "%s defines only dead value(s) (%s): the result is never read"
           d.Liveness.k_inst.Mir.n_op.Model.i_name
           (String.concat ", " (List.map preg_name d.Liveness.k_pregs)))
       (Liveness.dead_stores live fn)
   end);

  (* ---------------- hazard replay (M045, opt-in) ---------------- *)
  (if options.hazard_replay && at_least phase Diag.Post_sched then
     let lat = Latency.for_model model in
     let busy = Scoreboard.create model in
     List.iter
       (fun (b : Mir.block) ->
         Scoreboard.reset busy;
         (* newest-first writer records: location, producer, issue cycle *)
         let writers : (Locs.t * (Mir.inst * int)) list ref = ref [] in
         let prev = ref (-1) in
         let stalls = ref 0 in
         List.iter
           (fun (i : Mir.inst) ->
             let ready =
               List.fold_left
                 (fun acc l ->
                   match
                     List.find_opt
                       (fun (wl, _) -> Locs.overlap model l wl)
                       !writers
                   with
                   | Some (_, (w, wc)) -> max acc (wc + Latency.dep lat w i)
                   | None -> acc)
                 0 (Locs.reads model i)
             in
             let base = max ready (!prev + 1) in
             let c = ref base in
             while Scoreboard.conflict busy ~cycle:!c i.Mir.n_op do
               incr c
             done;
             stalls := !stalls + (!c - base);
             Scoreboard.reserve busy ~cycle:!c i.Mir.n_op;
             writers :=
               List.map (fun l -> (l, (i, !c))) (Locs.writes model i)
               @ !writers;
             prev := !c)
           b.Mir.b_insts;
         if !stalls > 0 then
           report ~severity:Diag.Warning ~block:b.Mir.b_label ~code:"M045"
             "scheduled block replays with %d structural interlock stall \
              cycle(s)"
             !stalls)
       fn.Mir.f_blocks);

  List.rev !diags

let check_prog ?options phase (p : Mir.prog) =
  List.concat_map (check_func ?options phase) p.Mir.p_funcs

let check_prog_exn ?options phase p =
  Diag.raise_if_errors (check_prog ?options phase p)
