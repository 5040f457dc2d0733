(* Fixture: PF003 pf-poly-compare must fire — polymorphic max/compare on
   ints call the runtime's generic comparison. *)
let clamp n = max 0 (n - 1)

let order a b = Stdlib.compare a b
