(* The floats sit in an all-float record, which OCaml stores flat, so
   [add] updates the average in place without boxing. *)
type fs = { alpha : float; mutable value : float }
type t = { f : fs; mutable n : int }

let create ~alpha =
  if alpha <= 0.0 || alpha > 1.0 then invalid_arg "Ewma.create: alpha";
  { f = { alpha; value = nan }; n = 0 }

let add t x =
  let f = t.f in
  t.n <- t.n + 1;
  if t.n = 1 then f.value <- x
  else f.value <- f.value +. (f.alpha *. (x -. f.value))

let value t = t.f.value
let initialized t = t.n > 0
let count t = t.n

let reset t =
  t.f.value <- nan;
  t.n <- 0
