(* bzip2-like kernel: block-sorting flavour.

   Memory-reference character being imitated: repeated suffix comparisons
   over a block with hot global state (depth budget, work factor) that the
   compiler cannot register-allocate because an instrumented budget pointer
   may alias it; mostly direct scalar references, matching bzip2's profile
   in Figure 9. *)

let source = {|
int block[32768];
int ptr[32768];
int scratch[64];

int work_budget;     // hot scalar re-read in the comparison loop
int depth_limit;     // hot scalar
int* budget_ptr;     // statically may point at the scalars
int checksum;

int block_len;       // input
int n_passes;        // input
int data[32768];     // input
int poke[256];       // input: which scratch slot the budget pointer uses

int suffix_cmp(int a, int b) {
  int d = 0;
  while (d < depth_limit) {
    int ca = block[(a + d) % 32768];
    int cb = block[(b + d) % 32768];
    // budget accounting through the aliased pointer
    *budget_ptr = *budget_ptr - 1;
    if (ca != cb) { return ca - cb + work_budget % 3; }
    if (work_budget < 0) { return 0; }
    d = d + 1;
  }
  return 0;
}

int main() {
  int i;
  int p;
  for (i = 0; i < block_len; i = i + 1) {
    block[i] = data[i];
    ptr[i] = i;
  }
  work_budget = 1000000;
  depth_limit = 12;
  budget_ptr = &scratch[0];
  for (p = 0; p < n_passes; p = p + 1) {
    budget_ptr = &scratch[poke[p % 256] % 64];
    int gap = 1;
    while (gap < block_len / 3) { gap = 3 * gap + 1; }
    while (gap > 0) {
      for (i = gap; i < block_len; i = i + 1) {
        int v = ptr[i];
        int j = i;
        while (j >= gap && suffix_cmp(ptr[j - gap], v) > 0) {
          ptr[j] = ptr[j - gap];
          j = j - gap;
          if (work_budget + scratch[0] < -100000000) { j = 0; }
        }
        ptr[j] = v;
      }
      gap = gap / 3;
    }
    checksum = checksum + ptr[p % block_len];
  }
  // make the scalars genuinely address-taken on a cold path
  if (checksum == -987654321) { budget_ptr = &work_budget; *budget_ptr = 1; }
  print_int(checksum);
  print_int(work_budget);
  return 0;
}
|}

let workload : Srp_driver.Workload.t =
  { name = "bzip2";
    description = "shell-sort block sorting: hot scalars re-read across budget-pointer stores";
    source;
    train =
      Srp_driver.Workload.input
        [ ("block_len", Input_gen.scalar_int 600);
          ("n_passes", Input_gen.scalar_int 2);
          ("data", Input_gen.ints ~seed:141 ~n:32768 ~lo:0 ~hi:255);
          ("poke", Input_gen.ints ~seed:142 ~n:256 ~lo:0 ~hi:63) ];
    ref_ =
      Srp_driver.Workload.input
        [ ("block_len", Input_gen.scalar_int 2600);
          ("n_passes", Input_gen.scalar_int 4);
          ("data", Input_gen.ints ~seed:241 ~n:32768 ~lo:0 ~hi:255);
          ("poke", Input_gen.ints ~seed:242 ~n:256 ~lo:0 ~hi:63) ] }
