type limit = Unlimited | Auto_minus of int | Fixed of int

type priority = Max_dist | Source_order

type options = {
  anti : bool;
  aux : bool;
  reg_limit : limit;
  fill_delay : bool;
  priority : priority;
}

let default_options =
  { anti = true; aux = true; reg_limit = Unlimited; fill_delay = true;
    priority = Max_dist }

(* the live-value cap of each register class (by class id) under a
   limit; none without one *)
let class_caps model limit =
  let caps cap =
    Some
      (Array.map
         (fun (c : Model.rclass) ->
           cap (List.length (Model.allocable_of_class model c.Model.c_id)))
         model.Model.classes)
  in
  match limit with
  | Unlimited -> None
  | Auto_minus k -> caps (fun avail -> max 1 (avail - k))
  | Fixed n -> caps (fun avail -> max 1 (min n avail))

(* a nop carries no semantics and no operands; pre-existing nops (from an
   earlier scheduling pass) are dropped and re-inserted *)
let is_nop (i : Mir.inst) =
  match i.Mir.n_op.Model.i_sem with
  | [] | [ Ast.Snop ] -> Array.length i.Mir.n_ops = 0
  | _ -> false

type result = {
  order : Mir.inst list;
  length : int;
  dag_nodes : int;
  dag_edges : int;
  pressure_bound : bool;
}

let pregs_of_inst which (i : Mir.inst) =
  List.filter_map
    (fun pos ->
      match Mir.operand_reg i.Mir.n_ops.(pos) with
      | Some (`Preg p) -> Some p
      | Some (`Phys _) | None -> None)
    which

(* what a block's schedules share, whatever the register limit: the code
   DAG, the priorities, and the pseudo-registers each node reads and
   writes *)
type block = {
  dag : Dag.t;
  prio : int array;
  reads : Mir.preg list array;
  writes : Mir.preg list array;
}

type prepared = block option

let prepare ?(options = default_options) ?oracle (fn : Mir.func)
    (insts : Mir.inst list) : prepared =
  match List.filter (fun i -> not (is_nop i)) insts with
  | [] -> None
  | insts ->
      let dag =
        Dag.build ~anti:options.anti ~aux:options.aux ?oracle fn.Mir.f_model
          insts
      in
      let n = Array.length dag.Dag.insts in
      let prio =
        match options.priority with
        | Max_dist -> Dag.max_dist_to_leaf dag
        | Source_order ->
            (* ablation: prefer earlier source position instead of the
               critical path *)
            Array.init n (fun i -> n - i)
      in
      let pregs which =
        Array.map (fun i -> pregs_of_inst (which i.Mir.n_op) i) dag.Dag.insts
      in
      Some
        {
          dag;
          prio;
          reads = pregs (fun op -> op.Model.i_reads);
          writes = pregs (fun op -> op.Model.i_writes);
        }

let run ?(options = default_options) ?sb_stats (fn : Mir.func)
    (prepared : prepared) : result =
  let model = fn.Mir.f_model in
  match prepared with
  | None ->
      { order = []; length = 0; dag_nodes = 0; dag_edges = 0;
        pressure_bound = false }
  | Some { dag; prio; reads; writes } ->
      let n = Array.length dag.Dag.insts in
      let cycle_of = Array.make n (-1) in
      let scheduled = Array.make n false in
      let busy = Scoreboard.create ?stats:sb_stats model in
      let order = ref [] in
      let remaining = ref n in
      let cycle = ref 0 in
      (* class-packing state for the current cycle *)
      let cur_class : Bitset.t option ref = ref None in
      (* IPS pressure state, kept only under a limit: the cap, live count
         and pending change per class (by class id), remaining reads per
         preg, and the live pregs *)
      let nclasses = Array.length model.Model.classes in
      let caps = class_caps model options.reg_limit in
      let live_count = Array.make nclasses 0 in
      let delta = Array.make nclasses 0 in
      let refused = ref false in
      let reads_left : (int, int) Hashtbl.t = Hashtbl.create 32 in
      if caps <> None then
        Array.iter
          (List.iter (fun (p : Mir.preg) ->
               Hashtbl.replace reads_left p.Mir.p_id
                 (1
                 + Option.value ~default:0
                     (Hashtbl.find_opt reads_left p.Mir.p_id))))
          reads;
      let live : (int, unit) Hashtbl.t = Hashtbl.create 16 in
      let apply_pressure i =
        List.iter
          (fun (p : Mir.preg) ->
            match Hashtbl.find_opt reads_left p.Mir.p_id with
            | Some k ->
                Hashtbl.replace reads_left p.Mir.p_id (k - 1);
                if k - 1 = 0 && Hashtbl.mem live p.Mir.p_id then begin
                  Hashtbl.remove live p.Mir.p_id;
                  live_count.(p.Mir.p_cls) <- live_count.(p.Mir.p_cls) - 1
                end
            | None -> ())
          reads.(i);
        List.iter
          (fun (p : Mir.preg) ->
            let still_read =
              match Hashtbl.find_opt reads_left p.Mir.p_id with
              | Some k -> k > 0
              | None -> false
            in
            if still_read && not (Hashtbl.mem live p.Mir.p_id) then begin
              Hashtbl.replace live p.Mir.p_id ();
              live_count.(p.Mir.p_cls) <- live_count.(p.Mir.p_cls) + 1
            end)
          writes.(i)
      in
      (* Rule 1 (paper 4.6): while a temporal edge on clock k is open
         (source scheduled, destination not), other instructions affecting
         k may not issue before the pending destinations *)
      let pending_clocks () =
        List.filter_map
          (fun (e : Dag.edge) ->
            match e.Dag.e_kind with
            | Dag.Temporal k
              when scheduled.(e.Dag.e_src) && not (scheduled.(e.Dag.e_dst)) ->
                Some (k, e.Dag.e_dst)
            | _ -> None)
          dag.Dag.edges
      in
      (* only the block terminator must issue last; calls are ordinary
         nodes held in place by barrier edges *)
      let is_term (op : Model.instr) = op.Model.i_branch && not op.Model.i_call in
      let nonbranch_left () =
        let c = ref 0 in
        Array.iteri
          (fun i inst ->
            if (not scheduled.(i)) && not (is_term inst.Mir.n_op) then incr c)
          dag.Dag.insts;
        !c
      in
      let data_ready i =
        List.for_all
          (fun (p, label, _) -> scheduled.(p) && cycle_of.(p) + label <= !cycle)
          dag.Dag.preds.(i)
      in
      let resources_free i =
        not (Scoreboard.conflict busy ~cycle:!cycle dag.Dag.insts.(i).Mir.n_op)
      in
      let class_ok i =
        match (dag.Dag.insts.(i).Mir.n_op.Model.i_class, !cur_class) with
        | None, _ -> true
        | Some _, None -> true
        | Some k, Some cur -> not (Bitset.inter_empty cur k)
      in
      let temporal_ok i =
        match dag.Dag.insts.(i).Mir.n_op.Model.i_affects with
        | None -> true
        | Some _ as affects ->
            Temporal.rule1_ok ~affects ~pending:(pending_clocks ()) ~self:i
      in
      (* i may issue unless it would raise some class's live count past
         its cap; [delta] is the per-class change if i issues now, and is
         all zero again on return *)
      let pressure_ok relaxed i =
        match caps with
        | None -> true
        | Some caps ->
            relaxed
            || begin
                 List.iter
                   (fun (p : Mir.preg) ->
                     match Hashtbl.find_opt reads_left p.Mir.p_id with
                     | Some 1 when Hashtbl.mem live p.Mir.p_id ->
                         delta.(p.Mir.p_cls) <- delta.(p.Mir.p_cls) - 1
                     | _ -> ())
                   reads.(i);
                 List.iter
                   (fun (p : Mir.preg) ->
                     if not (Hashtbl.mem live p.Mir.p_id) then
                       delta.(p.Mir.p_cls) <- delta.(p.Mir.p_cls) + 1)
                   writes.(i);
                 let ok = ref true in
                 for c = 0 to nclasses - 1 do
                   let d = delta.(c) in
                   if d > 0 && live_count.(c) + d > caps.(c) then ok := false;
                   delta.(c) <- 0
                 done;
                 if not !ok then refused := true;
                 !ok
               end
      in
      let branch_ok i =
        (not (is_term dag.Dag.insts.(i).Mir.n_op)) || nonbranch_left () = 0
      in
      let candidate relaxed i =
        (not scheduled.(i))
        && data_ready i
        && resources_free i
        && class_ok i
        && temporal_ok i
        && branch_ok i
        && pressure_ok relaxed i
      in
      let pick relaxed =
        let best = ref (-1) in
        for i = 0 to n - 1 do
          if candidate relaxed i then
            if !best < 0 || prio.(i) > prio.(!best) then best := i
        done;
        if !best >= 0 then Some !best else None
      in
      let guard = ref 0 in
      while !remaining > 0 do
        incr guard;
        if !guard > (n * 400) + 4000 then
          Loc.fail Loc.dummy "list scheduler is stuck (block of %d instructions)" n;
        let choice =
          match pick false with
          | Some i -> Some i
          | None ->
              (* the register-pressure limit never deadlocks the scheduler:
                 if nothing fits under the limit but something is ready,
                 relax (Goodman-Hsu) *)
              if caps <> None then pick true else None
        in
        match choice with
        | Some i ->
            scheduled.(i) <- true;
            cycle_of.(i) <- !cycle;
            decr remaining;
            order := i :: !order;
            let inst = dag.Dag.insts.(i) in
            Scoreboard.reserve busy ~cycle:!cycle inst.Mir.n_op;
            (match inst.Mir.n_op.Model.i_class with
            | Some k -> (
                match !cur_class with
                | None -> cur_class := Some (Bitset.copy k)
                | Some cur ->
                    let inter = Bitset.copy cur in
                    (* intersection: clear bits not in k *)
                    Bitset.iter
                      (fun b -> if not (Bitset.mem k b) then Bitset.unset inter b)
                      cur;
                    cur_class := Some inter)
            | None -> ());
            if caps <> None then apply_pressure i
        | None ->
            incr cycle;
            cur_class := None
      done;
      let issue_order = List.rev !order in
      let max_cycle =
        List.fold_left (fun acc i -> max acc cycle_of.(i)) 0 issue_order
      in
      (* delay slots are filled with nops (paper 4.4) *)
      let final_insts = List.map (fun i -> dag.Dag.insts.(i)) issue_order in
      let dag_edges = List.length dag.Dag.edges in
      let pressure_bound = !refused in
      if options.fill_delay then begin
        let filled, added = Delay.fill fn final_insts in
        { order = filled; length = max_cycle + 1 + added; dag_nodes = n;
          dag_edges; pressure_bound }
      end
      else
        { order = final_insts; length = max_cycle + 1; dag_nodes = n;
          dag_edges; pressure_bound }

let schedule_block ?options ?oracle ?sb_stats fn insts =
  run ?options ?sb_stats fn (prepare ?options ?oracle fn insts)

let schedule_func ?options ?oracle ?sb_stats (fn : Mir.func) =
  List.fold_left
    (fun acc (b : Mir.block) ->
      let r = schedule_block ?options ?oracle ?sb_stats fn b.Mir.b_insts in
      b.Mir.b_insts <- r.order;
      acc + r.length)
    0 fn.Mir.f_blocks

let estimate_func ?options ?oracle ?sb_stats (fn : Mir.func) =
  List.map
    (fun (b : Mir.block) ->
      let r = schedule_block ?options ?oracle ?sb_stats fn b.Mir.b_insts in
      (b.Mir.b_label, r.length))
    fn.Mir.f_blocks
