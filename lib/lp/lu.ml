(* Sparse LU factorization of a simplex basis in product form.

   Right-looking Gaussian elimination with a count-bucketed Markowitz
   pivot search, in the style of Suhl & Suhl (1990) and of the kernel
   of HiGHS' HFactor.  The active submatrix lives in flat work arrays:
   column-wise (row indices and values, each column a slice with its own
   spare capacity, moved to the free end of the arrays when it fills
   up) plus a row-wise index pattern kept exact.  Columns sit in
   doubly-linked lists by nonzero count, so a pivot search walks counts
   1, 2, … and looks at a handful of columns instead of all of them.

   Count 1 comes first: the column singletons (the slack and artificial
   unit columns) are pivoted before any elimination and cost no
   arithmetic.  The search is column-wise throughout.  A row singleton
   scores 0 and wins as soon as its column is searched, but it is not
   pulled ahead of the count order: measured on the cold phase 1 of
   the Figure-4 tandem at N = 300–500, pivoting row singletons first
   (on the first admissible entry, however small against its column)
   took 3 of 12 populations through, the column-wise order 8 of 12.
   Searching rows of count 2 and up as well, as Suhl & Suhl do, picked
   long pivot columns whose threshold-admissible pivots compounded to
   an element growth of 6e10 on the N = 60 phase-1 basis (against 2e2
   column-wise) and an LU off by 5e-5. *)

type eta = { row : int; pivot : float; idx : int array; vals : float array }

type stats = {
  deferred : int list;
  max_entry : float;
  max_elim : float;
  min_pivot : float;
  max_pivot : float;
}

(* A candidate must be at least this fraction of its column's largest
   active entry (relative stability threshold). *)
let threshold = 0.1

(* A column whose largest active entry is this small is numerically
   zero on the remaining rows: it is deferred, not pivoted. *)
let tiny_column = 1e-11

(* Updated entries this small are dropped from the active submatrix. *)
let drop = 1e-13

(* Columns examined once a pivot has been found, before the best one is
   taken. *)
let search_limit = 4

(* Spare room given to each column and row slice when it is loaded. *)
let spare = 4

(* The work arrays, sized for matrices of up to [size] rows; [m] is the
   size of the matrix being factorized. *)
type t = {
  size : int;
  mutable m : int;
  (* Active submatrix, column-wise: the entries of column k at the active
     rows are cidx/cval.(cstart.(k) .. cstart.(k) + clen.(k) − 1), with
     room for ccap.(k) of them; ccap = 0 once k has left. *)
  mutable cidx : int array;
  mutable cval : float array;
  cstart : int array;
  clen : int array;
  ccap : int array;
  mutable cfree : int;
  (* Row-wise pattern: the active columns with an entry in row i. *)
  mutable ridx : int array;
  rstart : int array;
  rlen : int array;
  rcap : int array;
  mutable rfree : int;
  (* Count buckets: chead.(c) heads the list of active columns with c
     entries, linked through cnext/cprev. *)
  chead : int array;
  cnext : int array;
  cprev : int array;
  (* Dense scatter of the current pivot column: lval.(i) is its entry at
     row i when lmark.(i) = stamp; hit.(i) = hstamp marks the rows the
     column being updated already holds.  Stamps only grow, so neither
     array is ever cleared. *)
  lmark : int array;
  lval : float array;
  hit : int array;
  mutable stamp : int;
  mutable hstamp : int;
  (* The columns in pivot order. *)
  order : int array;
  mutable n_piv : int;
  (* U entries (column, row, value) in the order they were made. *)
  mutable ucol : int array;
  mutable urow : int array;
  mutable uval : float array;
  mutable un : int;
  ustart : int array;
  mutable uidx : int array;  (* the U entries bucketed by column *)
  mutable uvals : float array;
}

let create m =
  {
    size = m;
    m;
    cidx = [||];
    cval = [||];
    cstart = Array.make m 0;
    clen = Array.make m 0;
    ccap = Array.make m 0;
    cfree = 0;
    ridx = [||];
    rstart = Array.make m 0;
    rlen = Array.make m 0;
    rcap = Array.make m 0;
    rfree = 0;
    chead = Array.make (m + 1) (-1);
    cnext = Array.make m (-1);
    cprev = Array.make m (-1);
    lmark = Array.make m 0;
    lval = Array.make m 0.;
    hit = Array.make m 0;
    stamp = 0;
    hstamp = 0;
    order = Array.make m 0;
    n_piv = 0;
    ucol = Array.make (m + 1) 0;
    urow = Array.make (m + 1) 0;
    uval = Array.make (m + 1) 0.;
    un = 0;
    ustart = Array.make (m + 1) 0;
    uidx = [||];
    uvals = [||];
  }

(* One workspace per domain, grown to the largest matrix it has seen:
   factorizations on a domain never nest, and a workspace per solver
   state would hold its arrays for the state's whole life. *)
let workspace = Domain.DLS.new_key (fun () -> create 0)

let workspace_for m =
  let w = Domain.DLS.get workspace in
  if w.size >= m then w
  else begin
    let w = create m in
    Domain.DLS.set workspace w;
    w
  end

(* Put column k in the bucket of count c, or take it out. *)
let link w k c =
  let h = w.chead.(c) in
  w.cnext.(k) <- h;
  w.cprev.(k) <- -1;
  if h >= 0 then w.cprev.(h) <- k;
  w.chead.(c) <- k

let unlink w k c =
  let p = w.cprev.(k) and n = w.cnext.(k) in
  if p >= 0 then w.cnext.(p) <- n else w.chead.(c) <- n;
  if n >= 0 then w.cprev.(n) <- p

(* Give column k room for [extra] more entries.  A full column moves to
   the free end of the arrays with twice the room it needs; when the end
   is reached, every live column is repacked into arrays twice the live
   size. *)
let col_room w k extra =
  let n = w.clen.(k) in
  if n + extra > w.ccap.(k) then begin
    let cap = 2 * (n + extra) in
    if w.cfree + cap > Array.length w.cidx then begin
      let live = ref cap in
      for j = 0 to w.m - 1 do
        live := !live + w.ccap.(j)
      done;
      let idx = Array.make (2 * !live) 0 and vals = Array.make (2 * !live) 0. in
      let p = ref 0 in
      for j = 0 to w.m - 1 do
        if w.ccap.(j) > 0 then begin
          Array.blit w.cidx w.cstart.(j) idx !p w.clen.(j);
          Array.blit w.cval w.cstart.(j) vals !p w.clen.(j);
          w.cstart.(j) <- !p;
          p := !p + w.ccap.(j)
        end
      done;
      w.cidx <- idx;
      w.cval <- vals;
      w.cfree <- !p
    end;
    let s = w.cfree in
    Array.blit w.cidx w.cstart.(k) w.cidx s n;
    Array.blit w.cval w.cstart.(k) w.cval s n;
    w.cstart.(k) <- s;
    w.ccap.(k) <- cap;
    w.cfree <- s + cap
  end

(* The same for the pattern of row i. *)
let row_room w i extra =
  let n = w.rlen.(i) in
  if n + extra > w.rcap.(i) then begin
    let cap = 2 * (n + extra) in
    if w.rfree + cap > Array.length w.ridx then begin
      let live = ref cap in
      for j = 0 to w.m - 1 do
        live := !live + w.rcap.(j)
      done;
      let idx = Array.make (2 * !live) 0 in
      let p = ref 0 in
      for j = 0 to w.m - 1 do
        if w.rcap.(j) > 0 then begin
          Array.blit w.ridx w.rstart.(j) idx !p w.rlen.(j);
          w.rstart.(j) <- !p;
          p := !p + w.rcap.(j)
        end
      done;
      w.ridx <- idx;
      w.rfree <- !p
    end;
    let s = w.rfree in
    Array.blit w.ridx w.rstart.(i) w.ridx s n;
    w.rstart.(i) <- s;
    w.rcap.(i) <- cap;
    w.rfree <- s + cap
  end

(* Delete column k from the pattern of row i. *)
let row_remove w i k =
  let s = w.rstart.(i) and n = w.rlen.(i) - 1 in
  let p = ref s in
  while w.ridx.(!p) <> k do
    incr p
  done;
  w.ridx.(!p) <- w.ridx.(s + n);
  w.rlen.(i) <- n

let row_add w i k =
  row_room w i 1;
  w.ridx.(w.rstart.(i) + w.rlen.(i)) <- k;
  w.rlen.(i) <- w.rlen.(i) + 1

let col_max w k =
  let mx = ref 0. in
  for e = w.cstart.(k) to w.cstart.(k) + w.clen.(k) - 1 do
    let a = Float.abs w.cval.(e) in
    if a > !mx then mx := a
  done;
  !mx

let u_add w k r v =
  if w.un = Array.length w.ucol then begin
    let grow a z =
      let b = Array.make (2 * w.un) z in
      Array.blit a 0 b 0 w.un;
      b
    in
    w.ucol <- grow w.ucol 0;
    w.urow <- grow w.urow 0;
    w.uval <- grow w.uval 0.
  end;
  w.ucol.(w.un) <- k;
  w.urow.(w.un) <- r;
  w.uval.(w.un) <- v;
  w.un <- w.un + 1

(* Load the matrix: counts first, then the slices, packed with [spare]
   room each; the flat arrays are reused while they are large enough. *)
let load w ~m ~column =
  w.m <- m;
  Array.fill w.clen 0 m 0;
  Array.fill w.rlen 0 m 0;
  let max_entry = ref 0. in
  for k = 0 to m - 1 do
    column k (fun i v ->
        if v <> 0. then begin
          w.clen.(k) <- w.clen.(k) + 1;
          w.rlen.(i) <- w.rlen.(i) + 1;
          if Float.abs v > !max_entry then max_entry := Float.abs v
        end)
  done;
  let cfree = ref 0 and rfree = ref 0 in
  for j = 0 to m - 1 do
    w.cstart.(j) <- !cfree;
    w.ccap.(j) <- w.clen.(j) + spare;
    cfree := !cfree + w.ccap.(j);
    w.clen.(j) <- 0;
    w.rstart.(j) <- !rfree;
    w.rcap.(j) <- w.rlen.(j) + spare;
    rfree := !rfree + w.rcap.(j);
    w.rlen.(j) <- 0
  done;
  if Array.length w.cidx < 2 * !cfree then begin
    w.cidx <- Array.make (2 * !cfree) 0;
    w.cval <- Array.make (2 * !cfree) 0.
  end;
  if Array.length w.ridx < 2 * !rfree then w.ridx <- Array.make (2 * !rfree) 0;
  w.cfree <- !cfree;
  w.rfree <- !rfree;
  for k = 0 to m - 1 do
    column k (fun i v ->
        if v <> 0. then begin
          let e = w.cstart.(k) + w.clen.(k) in
          w.cidx.(e) <- i;
          w.cval.(e) <- v;
          w.clen.(k) <- w.clen.(k) + 1;
          w.ridx.(w.rstart.(i) + w.rlen.(i)) <- k;
          w.rlen.(i) <- w.rlen.(i) + 1
        end)
  done;
  Array.fill w.chead 0 (m + 1) (-1);
  for k = m - 1 downto 0 do
    link w k w.clen.(k)
  done;
  w.n_piv <- 0;
  w.un <- 0;
  !max_entry

let factor ~m ~column ~push ~row_of =
  let w = workspace_for m in
  Array.fill row_of 0 m (-1);
  let max_entry = load w ~m ~column in
  let max_elim = ref 0. and min_pivot = ref infinity and max_pivot = ref 0. in
  let grow v =
    let a = Float.abs v in
    if a > !max_elim then max_elim := a
  in
  let deferred = ref [] and n_active = ref m in
  let retire k =
    unlink w k w.clen.(k);
    w.clen.(k) <- 0;
    w.ccap.(k) <- 0;
    decr n_active
  in
  let defer k =
    for e = w.cstart.(k) to w.cstart.(k) + w.clen.(k) - 1 do
      row_remove w w.cidx.(e) k
    done;
    retire k;
    deferred := k :: !deferred
  in
  (* Column k' loses its entry at the pivot row r, which becomes the U
     value f = v_r / p, and takes the update a_k' −= f·l on the active
     rows of the pivot column l = (lidx, lvals). *)
  let eliminate k' r p lidx lvals =
    let n0 = w.clen.(k') in
    unlink w k' n0;
    let s = w.cstart.(k') in
    let e = ref s in
    while w.cidx.(!e) <> r do
      incr e
    done;
    let f = w.cval.(!e) /. p in
    w.cidx.(!e) <- w.cidx.(s + n0 - 1);
    w.cval.(!e) <- w.cval.(s + n0 - 1);
    w.clen.(k') <- n0 - 1;
    grow f;
    u_add w k' r f;
    let nl = Array.length lidx in
    if nl > 0 then begin
      w.hstamp <- w.hstamp + 1;
      let hits = ref 0 in
      let e = ref s in
      while !e < s + w.clen.(k') do
        let i = w.cidx.(!e) in
        if w.lmark.(i) = w.stamp then begin
          w.hit.(i) <- w.hstamp;
          incr hits;
          let nv = w.cval.(!e) -. (w.lval.(i) *. f) in
          if Float.abs nv < drop then begin
            let last = s + w.clen.(k') - 1 in
            w.cidx.(!e) <- w.cidx.(last);
            w.cval.(!e) <- w.cval.(last);
            w.clen.(k') <- w.clen.(k') - 1;
            row_remove w i k'
          end
          else begin
            w.cval.(!e) <- nv;
            grow nv;
            incr e
          end
        end
        else incr e
      done;
      if !hits < nl then begin
        col_room w k' (nl - !hits);
        for q = 0 to nl - 1 do
          let i = lidx.(q) in
          if w.hit.(i) <> w.hstamp then begin
            let nv = 0. -. (lvals.(q) *. f) in
            if Float.abs nv >= drop then begin
              let e = w.cstart.(k') + w.clen.(k') in
              w.cidx.(e) <- i;
              w.cval.(e) <- nv;
              w.clen.(k') <- w.clen.(k') + 1;
              grow nv;
              row_add w i k'
            end
          end
        done
      end
    end;
    link w k' w.clen.(k')
  in
  let pivot k r p =
    let a = Float.abs p in
    if a < !min_pivot then min_pivot := a;
    if a > !max_pivot then max_pivot := a;
    grow p;
    (* The L eta: the pivot column's entries at the other active rows. *)
    let n = w.clen.(k) - 1 in
    let lidx = Array.make n 0 and lvals = Array.make n 0. in
    w.stamp <- w.stamp + 1;
    let q = ref 0 in
    for e = w.cstart.(k) to w.cstart.(k) + n do
      let i = w.cidx.(e) in
      if i <> r then begin
        let v = w.cval.(e) in
        lidx.(!q) <- i;
        lvals.(!q) <- v;
        incr q;
        grow v;
        w.lmark.(i) <- w.stamp;
        w.lval.(i) <- v;
        row_remove w i k
      end
    done;
    retire k;
    if n > 0 || Float.abs (p -. 1.) >= 1e-15 then
      push { row = r; pivot = p; idx = lidx; vals = lvals };
    row_of.(k) <- r;
    w.order.(w.n_piv) <- k;
    w.n_piv <- w.n_piv + 1;
    (* Row r leaves the active submatrix; every other column in it is
       updated.  Offsets are re-read each time round: an update may
       repack the row storage, but never touches row r itself. *)
    for j = 0 to w.rlen.(r) - 1 do
      let k' = w.ridx.(w.rstart.(r) + j) in
      if k' <> k then eliminate k' r p lidx lvals
    done;
    w.rlen.(r) <- 0;
    w.rcap.(r) <- 0
  in
  (* Markowitz search: the entry minimizing (row count − 1)·(column
     count − 1) among those passing the stability threshold, larger
     magnitude breaking ties.  Column counts are walked upward; at count
     c the search stops once the best score is at most (c − 1)², which
     a longer column can only beat on a row sparser than c, or after
     [search_limit] columns once it holds a pivot. *)
  let best_k = ref (-1) and best_r = ref (-1) and best_v = ref 0. in
  let best_score = ref max_int in
  let consider k i v score =
    if score < !best_score || (score = !best_score && Float.abs v > Float.abs !best_v)
    then begin
      best_k := k;
      best_r := i;
      best_v := v;
      best_score := score
    end
  in
  let search () =
    best_k := -1;
    best_score := max_int;
    best_v := 0.;
    while w.chead.(0) >= 0 do
      defer w.chead.(0)
    done;
    let searched = ref 0 and c = ref 1 and found = ref false in
    while (not !found) && !c <= m do
      let cnt = !c in
      let k = ref w.chead.(cnt) in
      while !k >= 0 && not !found do
        let kk = !k in
        k := w.cnext.(kk);
        let cm = col_max w kk in
        if cm <= tiny_column then defer kk
        else begin
          for e = w.cstart.(kk) to w.cstart.(kk) + cnt - 1 do
            let v = w.cval.(e) in
            if Float.abs v >= threshold *. cm then begin
              let i = w.cidx.(e) in
              consider kk i v ((w.rlen.(i) - 1) * (cnt - 1))
            end
          done;
          incr searched;
          if
            !best_k >= 0
            && (!best_score <= (cnt - 1) * (cnt - 1) || !searched >= search_limit)
          then found := true
        end
      done;
      incr c
    done
  in
  while !n_active > 0 do
    search ();
    if !best_k >= 0 then pivot !best_k !best_r !best_v
  done;
  (* U etas, one per pivoted column that holds entries at rows pivoted
     before it, in reverse pivot order so that FTRAN back-substitutes.
     The entries are bucketed by column (a counting sort into ustart). *)
  Array.fill w.ustart 0 (m + 1) 0;
  for q = 0 to w.un - 1 do
    let k = w.ucol.(q) in
    w.ustart.(k + 1) <- w.ustart.(k + 1) + 1
  done;
  for k = 0 to m - 1 do
    w.ustart.(k + 1) <- w.ustart.(k + 1) + w.ustart.(k)
  done;
  if Array.length w.uidx < w.un then begin
    w.uidx <- Array.make (Array.length w.ucol) 0;
    w.uvals <- Array.make (Array.length w.ucol) 0.
  end;
  for q = 0 to w.un - 1 do
    let k = w.ucol.(q) in
    let p = w.ustart.(k) in
    w.uidx.(p) <- w.urow.(q);
    w.uvals.(p) <- w.uval.(q);
    w.ustart.(k) <- p + 1
  done;
  (* ustart.(k) now ends column k's bucket, which starts at ustart.(k−1). *)
  for s = w.n_piv - 1 downto 0 do
    let k = w.order.(s) in
    let lo = if k = 0 then 0 else w.ustart.(k - 1) in
    let n = w.ustart.(k) - lo in
    if n > 0 then
      push
        {
          row = row_of.(k);
          pivot = 1.;
          idx = Array.sub w.uidx lo n;
          vals = Array.sub w.uvals lo n;
        }
  done;
  {
    deferred = List.rev !deferred;
    max_entry;
    max_elim = !max_elim;
    min_pivot = !min_pivot;
    max_pivot = !max_pivot;
  }
