package datagen

// Oracles expose the generators' ground-truth mappings. They play the
// role of the external validation services of Section 5.2 (gender-api.com
// for first names, the "uszipcode" package for zips, collected area-code
// listings for fax/phone prefixes): a discovered constant PFD is "genuine"
// iff the oracle agrees with its RHS.

// FirstNameGender maps every first name in the pools to its gender.
func FirstNameGender() map[string]string {
	out := make(map[string]string, len(maleFirst)+len(femaleFirst))
	for _, n := range maleFirst {
		out[n] = "M"
	}
	for _, n := range femaleFirst {
		out[n] = "F"
	}
	return out
}

// AreaToState maps phone/fax area codes to states.
func AreaToState() map[string]string {
	out := make(map[string]string, len(cities))
	for _, c := range cities {
		out[c.area] = c.state
	}
	return out
}

// Zip3ToCity maps determining 3-digit zip prefixes to cities.
func Zip3ToCity() map[string]string {
	out := make(map[string]string, len(cities))
	for _, c := range cities {
		out[c.zip3] = c.city
	}
	return out
}
