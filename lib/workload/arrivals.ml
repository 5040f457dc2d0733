type t = Poisson | Lognormal of float

let gap t rng ~mean =
  match t with
  | Poisson -> Bfc_util.Rng.exponential rng ~mean
  | Lognormal sigma -> Bfc_util.Rng.lognormal_mean rng ~mean ~sigma

let lognormal_default = Lognormal 2.0
