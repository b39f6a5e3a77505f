(** Canonical content digests for modules and inputs — the keys of the
    execution engine's content-addressed run cache.

    Digests are computed over the exact textual disassembly (respectively
    the canonical input listing), so they are stable across
    disassemble/assemble round trips and ignore [id_bound] (see the
    fresh-id discipline in {!Module_ir}): a variant regenerated by
    replaying a recorded transformation sequence digests equally to the
    original generation even though replay may end with a smaller bound.

    Each value is digested once: every domain keeps the digests of the
    last few values it digested, found by physical identity, so asking
    again for the same (immutable) module or input costs a few pointer
    comparisons instead of a disassembly and an MD5.  The result is always
    the digest a fresh computation would give. *)

val of_module : Module_ir.t -> string
(** Hex digest of a module's canonical disassembly. *)

val of_input : Input.t -> string
(** Hex digest of an input's canonical listing. *)
