(* The estimator state is an all-float record, which OCaml stores flat:
   [observe] runs once per acked segment and updates it in place
   without boxing. *)
type est = {
  mutable srtt : float; (* ns *)
  mutable rttvar : float; (* ns *)
}

type t = {
  min_rto : Des.Time.t;
  max_rto : Des.Time.t;
  initial : Des.Time.t;
  e : est;
  mutable n : int;
  mutable backoff_factor : int;
}

let create ?(initial = Des.Time.ms 10) ?(min_rto = Des.Time.ms 1)
    ?(max_rto = Des.Time.sec 2) () =
  {
    min_rto;
    max_rto;
    initial;
    e = { srtt = 0.0; rttvar = 0.0 };
    n = 0;
    backoff_factor = 1;
  }

let observe t sample =
  let s = float_of_int sample and e = t.e in
  if t.n = 0 then begin
    e.srtt <- s;
    e.rttvar <- s /. 2.0
  end
  else begin
    (* RFC 6298: alpha = 1/8, beta = 1/4. *)
    e.rttvar <- (0.75 *. e.rttvar) +. (0.25 *. Float.abs (e.srtt -. s));
    e.srtt <- (0.875 *. e.srtt) +. (0.125 *. s)
  end;
  t.n <- t.n + 1;
  t.backoff_factor <- 1

let base t =
  if t.n = 0 then t.initial
  else begin
    let rto = int_of_float (t.e.srtt +. (4.0 *. t.e.rttvar)) in
    Stdlib.min t.max_rto (Stdlib.max t.min_rto rto)
  end

let current t = Stdlib.min t.max_rto (base t * t.backoff_factor)

let backoff t =
  if base t * t.backoff_factor < t.max_rto then
    t.backoff_factor <- t.backoff_factor * 2

let srtt t = if t.n = 0 then None else Some (int_of_float t.e.srtt)
let samples t = t.n
