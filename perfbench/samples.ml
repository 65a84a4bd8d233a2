(* A growable buffer of integer samples (nanoseconds) and the
   percentiles the benchmark reports over it. *)

type t = { mutable data : int array; mutable len : int }

let create () = { data = Array.make 1024 0; len = 0 }

let push t x =
  if t.len = Array.length t.data then begin
    let bigger = Array.make (2 * t.len) 0 in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let length t = t.len

let get t i = if i < t.len then t.data.(i) else invalid_arg "Samples.get"

let append dst src = for i = 0 to src.len - 1 do push dst src.data.(i) done

let sum t =
  let s = ref 0 in
  for i = 0 to t.len - 1 do s := !s + t.data.(i) done;
  !s

let sorted t =
  let a = Array.sub t.data 0 t.len in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks; [q] in [0, 1]. *)
let quantile_sorted a q =
  match Array.length a with
  | 0 -> 0.
  | n ->
    let pos = q *. float (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float lo in
    (float a.(lo) *. (1. -. frac)) +. (float a.(hi) *. frac)

let median_of_floats l =
  match List.sort compare l with
  | [] -> 0.
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
