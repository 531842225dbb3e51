package thermo

// Air species database. Constants are representative of the era's CAT
// databases (Park 1985/1990, Gnoffo-era RRHO tables): characteristic
// rotational/vibrational temperatures, low-lying electronic levels, 0 K
// formation enthalpies, and Lennard-Jones parameters for the kinetic-theory
// transport fallback. Formation enthalpies are chosen so that dissociation
// and ionization energies reproduce the accepted values (N2: 9.76 eV,
// O2: 5.12 eV, N: 14.5 eV, O: 13.6 eV, N2: 15.6 eV ionization, ...).

// Named indices into the 11-species air set returned by AirSpecies11.
const (
	AirN2 = iota
	AirO2
	AirNO
	AirN
	AirO
	AirN2p
	AirO2p
	AirNOp
	AirNp
	AirOp
	AirE
	NAir11
)

// airTable is the canonical air species data. Do not mutate.
var airTable = []Species{
	{
		Name: "N2", W: 28.0134e-3, Hf0: 0, Rotor: Linear,
		ThetaR: [3]float64{2.88}, Sigma: 2,
		Vib:     []VibMode{{Theta: 3392, G: 1}},
		Elec:    []ElecLevel{{G: 1, Theta: 0}, {G: 3, Theta: 71600}, {G: 6, Theta: 85600}},
		Elems:   map[string]int{"N": 2},
		LJSigma: 3.798e-10, LJEps: 71.4,
	},
	{
		Name: "O2", W: 31.9988e-3, Hf0: 0, Rotor: Linear,
		ThetaR: [3]float64{2.08}, Sigma: 2,
		Vib:     []VibMode{{Theta: 2273, G: 1}},
		Elec:    []ElecLevel{{G: 3, Theta: 0}, {G: 2, Theta: 11392}, {G: 1, Theta: 18985}},
		Elems:   map[string]int{"O": 2},
		LJSigma: 3.467e-10, LJEps: 106.7,
	},
	{
		Name: "NO", W: 30.0061e-3, Hf0: 2.996123e6, Rotor: Linear,
		ThetaR: [3]float64{2.45}, Sigma: 1,
		Vib:     []VibMode{{Theta: 2739, G: 1}},
		Elec:    []ElecLevel{{G: 2, Theta: 0}, {G: 2, Theta: 174}, {G: 2, Theta: 63300}},
		Elems:   map[string]int{"N": 1, "O": 1},
		LJSigma: 3.492e-10, LJEps: 116.7,
	},
	{
		Name: "N", W: 14.0067e-3, Hf0: 3.3747e7, Rotor: Atom,
		Elec:    []ElecLevel{{G: 4, Theta: 0}, {G: 10, Theta: 27658}, {G: 6, Theta: 41495}},
		Elems:   map[string]int{"N": 1},
		LJSigma: 3.298e-10, LJEps: 71.4,
	},
	{
		Name: "O", W: 15.9994e-3, Hf0: 1.5574e7, Rotor: Atom,
		Elec: []ElecLevel{
			{G: 5, Theta: 0}, {G: 3, Theta: 228}, {G: 1, Theta: 326},
			{G: 5, Theta: 22830}, {G: 1, Theta: 48620},
		},
		Elems:   map[string]int{"O": 1},
		LJSigma: 3.05e-10, LJEps: 106.7,
	},
	{
		Name: "N2+", W: 28.0134e-3 - 5.48579909e-7, Charge: 1, Hf0: 5.37047e7, Rotor: Linear,
		ThetaR: [3]float64{2.88}, Sigma: 2,
		Vib:     []VibMode{{Theta: 3129, G: 1}},
		Elec:    []ElecLevel{{G: 2, Theta: 0}, {G: 4, Theta: 13189}, {G: 2, Theta: 36633}},
		Elems:   map[string]int{"N": 2},
		LJSigma: 3.798e-10, LJEps: 71.4,
	},
	{
		Name: "O2+", W: 31.9988e-3 - 5.48579909e-7, Charge: 1, Hf0: 3.6398e7, Rotor: Linear,
		ThetaR: [3]float64{2.08}, Sigma: 2,
		Vib:     []VibMode{{Theta: 2741, G: 1}},
		Elec:    []ElecLevel{{G: 4, Theta: 0}},
		Elems:   map[string]int{"O": 2},
		LJSigma: 3.467e-10, LJEps: 106.7,
	},
	{
		Name: "NO+", W: 30.0061e-3 - 5.48579909e-7, Charge: 1, Hf0: 3.28348e7, Rotor: Linear,
		ThetaR: [3]float64{2.45}, Sigma: 1,
		Vib:     []VibMode{{Theta: 3421, G: 1}},
		Elec:    []ElecLevel{{G: 1, Theta: 0}},
		Elems:   map[string]int{"N": 1, "O": 1},
		LJSigma: 3.492e-10, LJEps: 116.7,
	},
	{
		Name: "N+", W: 14.0067e-3 - 5.48579909e-7, Charge: 1, Hf0: 1.34337e8, Rotor: Atom,
		Elec: []ElecLevel{
			{G: 1, Theta: 0}, {G: 3, Theta: 70.1}, {G: 5, Theta: 188.2},
			{G: 5, Theta: 22037}, {G: 1, Theta: 47032},
		},
		Elems:   map[string]int{"N": 1},
		LJSigma: 3.298e-10, LJEps: 71.4,
	},
	{
		Name: "O+", W: 15.9994e-3 - 5.48579909e-7, Charge: 1, Hf0: 9.80594e7, Rotor: Atom,
		Elec:    []ElecLevel{{G: 4, Theta: 0}, {G: 10, Theta: 38575}, {G: 6, Theta: 58226}},
		Elems:   map[string]int{"O": 1},
		LJSigma: 3.05e-10, LJEps: 106.7,
	},
	{
		Name: "e-", W: 5.48579909e-7, Charge: -1, Hf0: 0, Rotor: Atom,
		Elec:    []ElecLevel{{G: 2, Theta: 0}},
		Elems:   map[string]int{},
		LJSigma: 1.0e-10, LJEps: 50,
	},
}

// AirSpecies11 returns the 11-species ionizing-air set
// [N2 O2 NO N O N2+ O2+ NO+ N+ O+ e-] as fresh pointers into a copied table.
func AirSpecies11() []*Species {
	out := make([]*Species, len(airTable))
	for i := range airTable {
		s := airTable[i] // copy
		out[i] = &s
	}
	return out
}

// AirFreestreamMassFractions returns the standard undissociated air
// composition by mass for a given species list (0.767 N2 / 0.233 O2,
// zero elsewhere).
func AirFreestreamMassFractions(species []*Species) []float64 {
	y := make([]float64, len(species))
	for i, s := range species {
		switch s.Name {
		case "N2":
			y[i] = 0.767
		case "O2":
			y[i] = 0.233
		}
	}
	return y
}
