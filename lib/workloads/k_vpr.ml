(* vpr-like kernel: placement cost evaluation flavour.

   Memory-reference character being imitated: a grid of heap-allocated
   cells; candidate swaps evaluate bounding-box cost by re-reading cell
   coordinates around updates of per-net cost accumulators reached through
   a cursor table (one table slot points back into the cell heap, so the
   compiler must assume the accumulator stores clobber coordinates). *)

let source = {|
struct cell { int x; int y; int w; int net; };

struct cell* grid[4096];
int net_cost[128];
int* acc[8];

int n_cells;      // input
int n_moves;      // input
int coords[8192]; // input
int moves[8192];  // input
int checksum;

void build() {
  int i;
  for (i = 0; i < n_cells; i = i + 1) {
    struct cell* c = malloc(32);
    c->x = coords[(2 * i) % 8192] % 64;
    c->y = coords[(2 * i + 1) % 8192] % 64;
    c->w = 1 + (i % 4);
    c->net = i % 128;
    grid[i] = c;
  }
  for (i = 0; i < 7; i = i + 1) { acc[i] = &net_cost[i * 16]; }
  acc[7] = &(grid[0]->x);
}

int swap_cost(int a, int b, int m) {
  struct cell* ca = grid[a];
  struct cell* cb = grid[b];
  int* cursor = acc[m % 7];
  // coordinates read, accumulator store, coordinates re-read
  int dx = ca->x - cb->x;
  int dy = ca->y - cb->y;
  *cursor = *cursor + dx * dx + dy * dy;
  int cost = ca->x * cb->w + cb->x * ca->w + ca->y + cb->y;
  if (cost % 5 == 0) {
    // commit the swap
    int t = ca->x;
    ca->x = cb->x;
    cb->x = t;
  }
  return cost + dx - dy;
}

int main() {
  build();
  int m;
  for (m = 0; m < n_moves; m = m + 1) {
    int a = moves[m % 8192] % n_cells;
    int b = moves[(m + 17) % 8192] % n_cells;
    if (a < 0) { a = -a; }
    if (b < 0) { b = -b; }
    checksum = checksum + swap_cost(a, b, m);
  }
  print_int(checksum);
  print_int(net_cost[16]);
  return 0;
}
|}

let workload : Srp_driver.Workload.t =
  { name = "vpr";
    description = "placement swaps: cell coordinates re-read across accumulator-cursor stores";
    source;
    train =
      Srp_driver.Workload.input
        [ ("n_cells", Input_gen.scalar_int 512);
          ("n_moves", Input_gen.scalar_int 12000);
          ("coords", Input_gen.ints ~seed:131 ~n:8192 ~lo:0 ~hi:4095);
          ("moves", Input_gen.ints ~seed:132 ~n:8192 ~lo:0 ~hi:1000000) ];
    ref_ =
      Srp_driver.Workload.input
        [ ("n_cells", Input_gen.scalar_int 3000);
          ("n_moves", Input_gen.scalar_int 120000);
          ("coords", Input_gen.ints ~seed:231 ~n:8192 ~lo:0 ~hi:4095);
          ("moves", Input_gen.ints ~seed:232 ~n:8192 ~lo:0 ~hi:1000000) ] }
