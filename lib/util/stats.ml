module Sample = struct
  type t = {
    mutable data : float array;
    mutable size : int;
    mutable dirty : bool; (* values added since the last in-place sort *)
    (* Order-sensitive aggregates are maintained at [add] time, in
       insertion order, so quantile queries (which sort [data] in place
       and therefore lose the insertion order) cannot change them. *)
    mutable sum : float;
    mutable max_v : float;
  }

  let create () =
    { data = [||]; size = 0; dirty = false; sum = 0.0; max_v = nan }

  let add t x =
    let cap = Array.length t.data in
    if t.size = cap then begin
      let ncap = if cap = 0 then 256 else cap * 2 in
      let nd = Array.make ncap 0.0 in
      Array.blit t.data 0 nd 0 t.size;
      t.data <- nd
    end;
    t.data.(t.size) <- x;
    t.size <- t.size + 1;
    t.dirty <- true;
    t.sum <- t.sum +. x;
    (* Float.compare, not (<): totally ordered on NaN (NaN sorts below
       every number), so max agrees with the sorted view's end. *)
    if t.size = 1 || Float.compare x t.max_v > 0 then t.max_v <- x

  let count t = t.size

  let is_empty t = t.size = 0

  (* In-place heapsort of the live prefix [0, n): zero allocation, so the
     exact quantile path peaks at one copy of the data instead of the two
     the old full-copy sorted cache needed. Float.compare, not (<):
     monomorphic (no boxing dispatch per comparison) and totally ordered
     on NaN, so a stray NaN sample cannot corrupt the sort order the
     percentile lookups rely on (NaN sorts below every number). *)
  let sift_down a n root =
    let i = ref root and live = ref true in
    while !live do
      let l = (2 * !i) + 1 in
      if l >= n then live := false
      else begin
        let c = if l + 1 < n && Float.compare a.(l + 1) a.(l) > 0 then l + 1 else l in
        if Float.compare a.(c) a.(!i) > 0 then begin
          let tmp = a.(c) in
          a.(c) <- a.(!i);
          a.(!i) <- tmp;
          i := c
        end
        else live := false
      end
    done

  let sort_prefix a n =
    for root = (n / 2) - 1 downto 0 do
      sift_down a n root
    done;
    for last = n - 1 downto 1 do
      let tmp = a.(last) in
      a.(last) <- a.(0);
      a.(0) <- tmp;
      sift_down a last 0
    done

  let ensure_sorted t =
    if t.dirty then begin
      sort_prefix t.data t.size;
      t.dirty <- false
    end

  let sorted t =
    ensure_sorted t;
    Array.sub t.data 0 t.size

  let mean t = if t.size = 0 then nan else t.sum /. float_of_int t.size

  let max t = t.max_v

  let stddev t =
    if t.size < 2 then 0.0
    else begin
      (* Accumulate in ascending (sorted) order: a canonical order, so the
         float result does not depend on how observations interleaved. *)
      ensure_sorted t;
      let m = mean t in
      let acc = ref 0.0 in
      for i = 0 to t.size - 1 do
        let d = t.data.(i) -. m in
        acc := !acc +. (d *. d)
      done;
      sqrt (!acc /. float_of_int (t.size - 1))
    end

  let percentile t p =
    if t.size = 0 then invalid_arg "Stats.Sample.percentile: empty sample";
    if p < 0.0 || p > 100.0 then invalid_arg "Stats.Sample.percentile: p out of range";
    ensure_sorted t;
    let n = t.size in
    if n = 1 then t.data.(0)
    else begin
      let rank = p /. 100.0 *. float_of_int (n - 1) in
      let lo = int_of_float (Float.floor rank) in
      let hi = Stdlib.min (lo + 1) (n - 1) in
      let frac = rank -. float_of_int lo in
      t.data.(lo) +. (frac *. (t.data.(hi) -. t.data.(lo)))
    end
end
