(** Canonical content digests for modules and inputs.

    The digest of a module is computed over its exact textual disassembly,
    which {!Disasm} guarantees to be precisely invertible by {!Asm} (floats
    are printed in hexadecimal notation), so two modules digest equally iff
    their listings coincide.  Notably the digest ignores [id_bound]: fuzzers
    burn ids on proposals that fail their preconditions, so replaying a
    recorded transformation sequence reproduces a variant's {e contents}
    with a possibly smaller bound — such replays must (and do) share a
    digest, which is what lets the execution engine memoize the repeated
    prefix replays of delta debugging. *)

let hex s = Stdlib.Digest.to_hex (Stdlib.Digest.string s)

let of_module (m : Module_ir.t) : string = hex (Disasm.to_string m)

let of_input (input : Input.t) : string = hex (Input.to_string input)
