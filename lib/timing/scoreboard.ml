type stats = {
  mutable probes : int;
  mutable conflicts : int;
  mutable reserves : int;
}

let make_stats () = { probes = 0; conflicts = 0; reserves = 0 }

(* The ring is one int per cycle when every resource fits in a word (every
   built-in target), probed with [land] and reserved with [lor]; wider
   models keep one bit set per cycle. *)
type ring =
  | Words of int array * int array array
      (** the ring, and each instruction's resource vector as words *)
  | Sets of Bitset.t array

type t = {
  ring : ring;
  size : int;  (** window length: the model's longest resource vector *)
  mutable base : int;  (** cycles [base .. base+size-1] are live *)
  mutable head : int;  (** the slot of cycle [base]: [base mod size] *)
  stats : stats option;
}

(* the window only ever needs one slot per cycle an instruction can still
   occupy resources after issue, i.e. the longest %instr resource vector *)
let span (model : Model.t) =
  Array.fold_left
    (fun acc (i : Model.instr) -> max acc (Array.length i.Model.i_rvec))
    1 model.Model.instrs

(* each instruction's resource vector as words, for the last model seen:
   the scheduler creates a scoreboard per block, nearly always for the
   model of the previous one (a race between domains only recomputes) *)
let last_masks : (Model.t * int array array) option Atomic.t = Atomic.make None

let masks (model : Model.t) =
  match Atomic.get last_masks with
  | Some (m, masks) when m == model -> masks
  | Some _ | None ->
      let masks =
        Array.map
          (fun (i : Model.instr) -> Array.map Bitset.low_word i.Model.i_rvec)
          model.Model.instrs
      in
      Atomic.set last_masks (Some (model, masks));
      masks

let create ?stats (model : Model.t) =
  let nres = Array.length model.Model.resources in
  let size = span model in
  let ring =
    if nres <= Sys.int_size then Words (Array.make size 0, masks model)
    else Sets (Array.init size (fun _ -> Bitset.create nres))
  in
  { ring; size; base = 0; head = 0; stats }

let window t = t.size

let clear_slot t i =
  match t.ring with Words (w, _) -> w.(i) <- 0 | Sets s -> Bitset.clear s.(i)

let reset t =
  for i = 0 to t.size - 1 do
    clear_slot t i
  done;
  t.base <- 0;
  t.head <- 0

(* Every consumer probes at monotonically non-decreasing cycles (the list
   scheduler's and simulator's clocks only advance; the hazard replay
   places instructions at strictly increasing cycles), so moving the
   window forward may recycle every slot that fell behind it. *)
let advance t cycle =
  if cycle < t.base then
    invalid_arg "Scoreboard: probe behind the window base";
  if cycle - t.base >= t.size then begin
    reset t;
    t.head <- cycle mod t.size
  end
  else
    for _ = t.base to cycle - 1 do
      clear_slot t t.head;
      t.head <- (if t.head + 1 = t.size then 0 else t.head + 1)
    done;
  t.base <- cycle

(* probe loops walk the ring from the window head with a wrapped index,
   and conflict exits on first hit *)

let conflict t ~cycle (op : Model.instr) =
  if cycle <> t.base then advance t cycle;
  let rvec = op.Model.i_rvec in
  let n = Array.length rvec in
  let i = ref t.head in
  let c = ref 0 in
  (match t.ring with
  | Words (w, masks) ->
      let m = masks.(op.Model.i_id) in
      while !c < n && w.(!i) land m.(!c) = 0 do
        incr c;
        i := if !i + 1 = t.size then 0 else !i + 1
      done
  | Sets s ->
      while !c < n && Bitset.inter_empty s.(!i) rvec.(!c) do
        incr c;
        i := if !i + 1 = t.size then 0 else !i + 1
      done);
  let hit = !c < n in
  (match t.stats with
  | Some s ->
      s.probes <- s.probes + 1;
      if hit then s.conflicts <- s.conflicts + 1
  | None -> ());
  hit

let reserve t ~cycle (op : Model.instr) =
  if cycle <> t.base then advance t cycle;
  let rvec = op.Model.i_rvec in
  let i = ref t.head in
  (match t.ring with
  | Words (w, masks) ->
      let m = masks.(op.Model.i_id) in
      for c = 0 to Array.length m - 1 do
        w.(!i) <- w.(!i) lor m.(c);
        i := if !i + 1 = t.size then 0 else !i + 1
      done
  | Sets s ->
      for c = 0 to Array.length rvec - 1 do
        Bitset.union_into ~dst:s.(!i) rvec.(c);
        i := if !i + 1 = t.size then 0 else !i + 1
      done);
  match t.stats with Some s -> s.reserves <- s.reserves + 1 | None -> ()
