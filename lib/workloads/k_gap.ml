(* gap-like kernel: computational group theory flavour.

   Memory-reference character being imitated: permutation composition over
   heap-allocated permutation objects with a global bag size and result
   cache, where cache-update stores go through a handle table that may
   (statically) point back into the permutation heap. *)

let source = {|
struct perm { int deg; int base; int* map; };

struct perm* bag[256];
int cache[512];
int* handles[8];

int degree;       // input
int n_products;   // input
int seeds[4096];  // input
int checksum;

struct perm* make_perm(int seed) {
  struct perm* p = malloc(24);
  p->deg = degree;
  p->base = seed % 7;
  int* m = malloc(8 * degree);
  int i;
  for (i = 0; i < degree; i = i + 1) {
    m[i] = (i * (1 + 2 * (seed % 8)) + seed) % degree;
  }
  p->map = m;
  return p;
}

int compose(struct perm* a, struct perm* b, int h) {
  int* cursor = handles[h % 7];
  int i;
  int sum = 0;
  int* am = a->map;
  int* bm = b->map;
  int bd = b->deg;
  for (i = 0; i < a->deg; i = i + 1) {
    // a->deg and a->base stay register-resident only if the cursor
    // stores can be speculated away
    int x = bm[i % bd];
    int y = am[x % a->deg];
    *cursor = *cursor + y;
    sum = sum + y * 3 + (y ^ x) + a->base;
  }
  return sum;
}

int main() {
  int i;
  for (i = 0; i < 7; i = i + 1) { handles[i] = &cache[i * 64]; }
  for (i = 0; i < 64; i = i + 1) { bag[i] = make_perm(seeds[i % 4096]); }
  handles[7] = &(bag[0]->deg);
  int k;
  for (k = 0; k < n_products; k = k + 1) {
    struct perm* a = bag[seeds[k % 4096] % 64];
    struct perm* b = bag[seeds[(k + 9) % 4096] % 64];
    if (a != 0 && b != 0) {
      checksum = checksum + compose(a, b, k);
    }
  }
  print_int(checksum);
  print_int(cache[64]);
  return 0;
}
|}

let workload : Srp_driver.Workload.t =
  { name = "gap";
    description = "permutation composition: map pointers re-read across cache-cursor stores";
    source;
    train =
      Srp_driver.Workload.input
        [ ("degree", Input_gen.scalar_int 48);
          ("n_products", Input_gen.scalar_int 600);
          ("seeds", Input_gen.ints ~seed:161 ~n:4096 ~lo:1 ~hi:100000) ];
    ref_ =
      Srp_driver.Workload.input
        [ ("degree", Input_gen.scalar_int 96);
          ("n_products", Input_gen.scalar_int 4500);
          ("seeds", Input_gen.ints ~seed:261 ~n:4096 ~lo:1 ~hi:100000) ] }
