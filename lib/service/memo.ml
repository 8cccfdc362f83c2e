(* The fleet memo lives in [Core] so the campaign runners call it
   directly. This alias stays because perfbench/main.ml, which must build
   unchanged at every commit it compares, names [Service.Memo.{t,create,
   stats}] and passes the memo to [Service.Sched.create ~memo]. *)
include Core.Memo
