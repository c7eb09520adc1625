type inv_id = int

type call = {
  obj_name : string;
  meth : string;
  arg : Util.Value.t;
  inv : inv_id;
  proc : int;
  tag : string;
}

type t =
  | Call of call
  | Ret of { inv : inv_id; value : Util.Value.t; proc : int; obj_name : string }

let pp ppf = function
  | Call c ->
      Fmt.pf ppf "call %s.%s(%a)@%d#%d" c.obj_name c.meth Util.Value.pp c.arg
        c.proc c.inv
  | Ret r ->
      Fmt.pf ppf "ret %s %a@%d#%d" r.obj_name Util.Value.pp r.value r.proc r.inv

let inv = function Call c -> c.inv | Ret r -> r.inv
let proc = function Call c -> c.proc | Ret r -> r.proc
let obj_name = function Call c -> c.obj_name | Ret r -> r.obj_name
