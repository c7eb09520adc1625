type rand_kind = Program_random | Object_random

type _ op =
  | Broadcast : Message.t -> unit op
  | Send : int * Message.t -> unit op
  | Recv : string * (Message.t -> bool) -> Message.t op
  | Read_reg : Base_reg.id -> Util.Value.t op
  | Write_reg : Base_reg.id * Util.Value.t -> unit op
  | Rmw_reg : Base_reg.id * (Util.Value.t -> Util.Value.t * Util.Value.t) -> Util.Value.t op
  | Random : int * rand_kind -> int op
  | Fresh : int op
  | Label : string -> unit op
  | Note : string * Util.Value.t -> unit op
  | Call_marker : {
      obj_name : string;
      meth : string;
      arg : Util.Value.t;
      tag : string;
    }
      -> int op
  | Ret_marker : { inv : int; value : Util.Value.t } -> unit op

type 'a t =
  | Ret : 'a -> 'a t
  | Do : 'a op -> 'a t
  | Op : 'b op * ('b -> 'a t) -> 'a t
  | Bind : 'b t * ('b -> 'a t) -> 'a t

let return x = Ret x

let bind m f =
  match m with Ret x -> f x | Do o -> Op (o, f) | Op _ | Bind _ -> Bind (m, f)

let map f m = bind m (fun x -> Ret (f x))

module Syntax = struct
  let ( let* ) = bind
  let ( let+ ) m f = map f m
end

let op o = Do o
let broadcast m = op (Broadcast m)
let send dst m = op (Send (dst, m))
let recv ~descr pred = op (Recv (descr, pred))
let read_reg r = op (Read_reg r)
let write_reg r v = op (Write_reg (r, v))
let rmw_reg r f = op (Rmw_reg (r, f))
let random ~kind n = op (Random (n, kind))
let fresh = op Fresh
let label l = op (Label l)
let note name v = op (Note (name, v))

let repeat n body =
  let rec go i acc =
    if i = n then return (List.rev acc) else bind (body i) (fun x -> go (i + 1) (x :: acc))
  in
  go 0 []

let iter xs f =
  let rec go = function [] -> return () | x :: rest -> bind (f x) (fun () -> go rest) in
  go xs

let seq ps = iter ps (fun p -> p)
