(* art-like kernel: adaptive resonance neural network flavour (floating
   point).

   Memory-reference character being imitated: the F1 layer scan — per
   neuron, weight and activation values are re-read around bus-value
   updates that go through a pointer selected from a table; one table slot
   aliases the weight storage, so the compiler reloads weights on every
   pass unless it speculates. *)

let source = {|
double weights[16384];
double acts[1024];
double bus[64];
double* bcur[8];

double vigilance;     // hot scalar, read per neuron
double learn_rate;    // hot scalar

int n_neurons;        // input
int n_inputs;         // input
int n_epochs;         // input
double pattern[1024]; // input
double checksum;

void setup() {
  int i;
  for (i = 0; i < 7; i = i + 1) { bcur[i] = &bus[i * 8]; }
  bcur[7] = &weights[3];
  vigilance = 0.35;
  learn_rate = 0.02;
  for (i = 0; i < n_neurons * n_inputs; i = i + 1) {
    weights[i % 16384] = 0.5 + 0.001 * (i % 700);
  }
}

double match_neuron(int j, int epoch) {
  double* cursor = bcur[(j + epoch) % 7];
  double* w = &weights[(j * n_inputs) % 8192];
  double sum = 0.0;
  int i;
  for (i = 0; i < n_inputs; i = i + 1) {
    double p = pattern[i % 1024];
    // the bus write statically may touch the weights
    *cursor = *cursor + *w * p;
    // weight re-reads after the store: registers under speculation
    sum = sum + *w * p * vigilance + p;
    w = w + 1;
  }
  if (sum * vigilance > 1.0) {
    weights[(j * n_inputs) % 8192] = weights[(j * n_inputs) % 8192] + learn_rate;
  }
  return sum * vigilance + learn_rate;
}

int main() {
  setup();
  int e;
  int j;
  for (e = 0; e < n_epochs; e = e + 1) {
    for (j = 0; j < n_neurons; j = j + 1) {
      checksum = checksum + match_neuron(j, e);
    }
  }
  print_float(checksum);
  print_float(bus[8]);
  return 0;
}
|}

let workload : Srp_driver.Workload.t =
  { name = "art";
    description = "neural-network F1 scan: weights re-read across bus-cursor stores";
    source;
    train =
      Srp_driver.Workload.input
        [ ("n_neurons", Input_gen.scalar_int 40);
          ("n_inputs", Input_gen.scalar_int 30);
          ("n_epochs", Input_gen.scalar_int 4);
          ("pattern", Input_gen.floats ~seed:181 ~n:1024 ~lo:0.0 ~hi:1.0) ];
    ref_ =
      Srp_driver.Workload.input
        [ ("n_neurons", Input_gen.scalar_int 140);
          ("n_inputs", Input_gen.scalar_int 90);
          ("n_epochs", Input_gen.scalar_int 18);
          ("pattern", Input_gen.floats ~seed:281 ~n:1024 ~lo:0.0 ~hi:1.0) ] }
