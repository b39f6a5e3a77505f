(** Canonical content digests for modules and inputs.

    The digest of a module is computed over its exact textual disassembly,
    which {!Disasm} guarantees to be precisely invertible by {!Asm} (floats
    are printed in hexadecimal notation), so two modules digest equally iff
    their listings coincide.  Notably the digest ignores [id_bound]: fuzzers
    burn ids on proposals that fail their preconditions, so replaying a
    recorded transformation sequence reproduces a variant's {e contents}
    with a possibly smaller bound — such replays must (and do) share a
    digest, which is what lets the execution engine memoize the repeated
    prefix replays of delta debugging.

    A digest is a disassembly plus an MD5, and the engine asks for the same
    module's digest once per target, per optimize call and per TV step.  So
    each domain remembers the digests of the last {!slots} values it
    digested, found by physical identity ([==]).  That is sound because
    modules and inputs are immutable: a value reached again by [==] has
    the listing it had when it was first digested.  The cache is
    domain-local ([Domain.DLS]), so it takes no lock. *)

let hex s = Stdlib.Digest.to_hex (Stdlib.Digest.string s)

let slots = 8

(* Most recently used first; a hit moves to the front, a miss evicts the
   last entry. *)
type 'a recent = ('a * string) option array

let recent_key () : 'a recent Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Array.make slots None)

let memoized (key : 'a recent Domain.DLS.key) digest (v : 'a) =
  let recent = Domain.DLS.get key in
  let rec find i =
    if i = slots then None
    else
      match recent.(i) with
      | Some (v', d) when v' == v -> Some (i, d)
      | Some _ -> find (i + 1)
      | None -> None
  in
  let to_front i entry =
    Array.blit recent 0 recent 1 i;
    recent.(0) <- entry
  in
  match find 0 with
  | Some (i, d) ->
      if i > 0 then to_front i recent.(i);
      d
  | None ->
      let d = digest v in
      to_front (slots - 1) (Some (v, d));
      d

let modules : Module_ir.t recent Domain.DLS.key = recent_key ()
let inputs : Input.t recent Domain.DLS.key = recent_key ()

let of_module (m : Module_ir.t) : string =
  memoized modules (fun m -> hex (Disasm.to_string m)) m

let of_input (input : Input.t) : string =
  memoized inputs (fun i -> hex (Input.to_string i)) input
