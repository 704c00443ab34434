(* The timer owns one engine handle for its whole life. [arm] runs on
   every segment of a TCP transfer (RTO and delayed-ack re-arming), so
   it reschedules that handle in place — no fresh record, no option
   cell, no closure. *)
type t = { engine : Engine.t; f : unit -> unit; ev : Engine.handle }

let create engine ~f = { engine; f; ev = Engine.dormant engine }
let stop t = Engine.cancel t.ev

let arm t ~delay =
  stop t;
  if delay < 0 then invalid_arg "Timer.arm: negative delay";
  Engine.reschedule t.ev ~at:(Engine.now t.engine + delay) t.f

let is_armed t = Engine.is_pending t.ev

let every engine ~period ?start f =
  if period <= 0 then invalid_arg "Timer.every: period must be positive";
  let rec timer =
    lazy
      (create engine ~f:(fun () ->
           f ();
           arm (Lazy.force timer) ~delay:period))
  in
  let t = Lazy.force timer in
  let first = match start with None -> period | Some s -> s in
  arm t ~delay:first;
  t
