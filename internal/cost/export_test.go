package cost

import "time"

// StorageCost prices size bytes stored for d.
func (b Book) StorageCost(size int64, d time.Duration) USD {
	const month = 30 * 24 * time.Hour
	return b.PerGBMonthStored * USD(float64(size)/1e9) * USD(float64(d)/float64(month))
}
