type t = {
  total : int;
  alpha : float;
  mutable used : int;
  ingress_used : int array;
}

let create ~total ~alpha ~n_ingress =
  if total <= 0 then invalid_arg "Buffer.create: total";
  { total; alpha; used = 0; ingress_used = Array.make (max 1 n_ingress) 0 }

let used t = t.used

let infinite t = t.total = max_int

let free t = if infinite t then max_int else t.total - t.used

let admit t ~queue_bytes ~size =
  if infinite t then true
  else begin
    let remaining = t.total - t.used in
    size <= remaining
    && float_of_int queue_bytes < t.alpha *. float_of_int remaining
  end

let on_enqueue t ~in_port ~size =
  t.used <- t.used + size;
  if in_port >= 0 && in_port < Array.length t.ingress_used then
    t.ingress_used.(in_port) <- t.ingress_used.(in_port) + size

let on_dequeue t ~in_port ~size =
  t.used <- t.used - size;
  if in_port >= 0 && in_port < Array.length t.ingress_used then
    t.ingress_used.(in_port) <- t.ingress_used.(in_port) - size

let ingress_used t i = t.ingress_used.(i)

let reset t =
  t.used <- 0;
  Array.fill t.ingress_used 0 (Array.length t.ingress_used) 0
