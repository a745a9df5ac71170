(** Global liveness over MIR: the one backward {!Dataflow} client that
    the register allocator's interference graph and Mircheck's A001/A002
    warnings share.

    Live sets are {!Bitset}s over a dense key space per function:
    - one key per physical register of the model, (class, index) as the
      allocator sees it — a register part names its whole register;
    - two keys per pseudo-register, one per half ([Opart] part).

    A full write kills both halves of a pseudo, [Opart (p, k)] kills
    only half [k], and a read uses the halves it names. So a double
    assigned as two half-moves is dead above its first half-write.

    Every block gets a live set, blocks that reach no exit included (the
    least fixpoint). In a call-free function the return-address register
    is live out of the last layout block: the epilogue that reads it
    does not exist yet at allocation time. *)

type t

val compute : Mir.func -> t

val live_out : t -> string -> Bitset.t
(** A fresh copy of the keys live at the block's exit (empty for a
    label that names no block). *)

val step : t -> Mir.inst -> Bitset.t -> unit
(** [step t i live] turns the keys live after [i] into those live before
    it, in place. *)

val iter_defs : t -> (int -> unit) -> Mir.inst -> unit
(** The keys the instruction writes: written operands and implicit
    defs. *)

val iter_operand : t -> (int -> unit) -> Mir.operand -> unit
(** The keys an operand names. *)

val pseudo : t -> int -> int
(** The pseudo-register id a key belongs to, or [-1] for a physical
    register's key. *)

val reg : t -> int -> Model.reg
(** The physical register of a key that belongs to no pseudo. *)

(** {1 Clients} *)

type uninit = {
  u_preg : Mir.preg;
  u_block : string;  (** block of the representative use *)
  u_inst : Mir.inst;  (** first upward-exposed use in layout order *)
}

val uninitialized : t -> Mir.func -> uninit list
(** Pseudos with a half live into the entry block (A001), each with a
    representative use site; ordered by pseudo id. *)

type dead = {
  k_block : string;
  k_inst : Mir.inst;
  k_pregs : Mir.preg list;  (** the dead pseudos it defines *)
}

val dead_stores : t -> Mir.func -> dead list
(** Instructions whose every written operand is a pseudo with neither
    half live afterwards, and whose removal would be observably safe (no
    memory, control, temporal or implicit-register effects), in layout
    order (A002). *)
