package lti

// Sample is one point of a sampled output trajectory.
type Sample struct {
	T float64 // time in seconds
	Y float64 // system output
}

// SettlingBand is the default ±2 % band around the reference used by the
// paper ("reach and stay in a closed region around r, e.g. 0.98r to 1.02r").
const SettlingBand = 0.02
