(** Module-level constants ([OpConstant*] analogs).

    Composite constants refer to their constituents by id, so the constant
    table is ordered: a constituent must be declared before any composite
    using it.

    Float payloads compare by their bits, not by value ([0.0 = -0.0]):
    [0.0] and [-0.0] are distinct constants (interning one must
    not hand back the other, or constant folding flips a sign), and so
    equal constants always print the same hexadecimal listing. *)

type t =
  | Bool of bool
  | Int of int32
  | Float of
      (float
      [@equal fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)])
  | Composite of Id.t list  (** constituent constant ids *)
  | Null                    (** zero value of the declared type *)
[@@deriving show { with_path = false }, eq]
