//! The black-box value audit: the database's final state must equal the
//! initial state plus exactly the increments acknowledged by `Ok`
//! receipts. It sees only client-observed values, never the engine's log.

use std::collections::BTreeMap;

use dbmodel::{LogicalItemId, Value};

/// Check the values one final read of every item returned against the
/// acknowledged increments. Every item starts at `initial`.
pub fn check(
    items: u64,
    initial: Value,
    acknowledged: &BTreeMap<LogicalItemId, Value>,
    observed: &BTreeMap<LogicalItemId, Value>,
) -> Result<(), String> {
    if observed.len() as u64 != items {
        return Err(format!(
            "the final read returned {} of {items} items",
            observed.len()
        ));
    }
    let expected_total = acknowledged
        .values()
        .fold(initial.wrapping_mul(items as Value), |t, &d| {
            t.wrapping_add(d)
        });
    let observed_total = observed
        .values()
        .fold(0 as Value, |t, &v| t.wrapping_add(v));
    if observed_total != expected_total {
        return Err(format!(
            "total is {observed_total}, expected {expected_total} \
             (initial {initial} x {items} items plus acknowledged increments)"
        ));
    }
    for (&item, &value) in observed {
        let expected = initial.wrapping_add(acknowledged.get(&item).copied().unwrap_or(0));
        if value != expected {
            return Err(format!("item {} is {value}, expected {expected}", item.0));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(values: &[Value]) -> BTreeMap<LogicalItemId, Value> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| (LogicalItemId(i as u64), v))
            .collect()
    }

    #[test]
    fn matching_state_passes() {
        let acked = BTreeMap::from([(LogicalItemId(0), 3), (LogicalItemId(2), 5)]);
        assert_eq!(check(3, 10, &acked, &state(&[13, 10, 15])), Ok(()));
    }

    #[test]
    fn wrong_expected_total_is_rejected() {
        let observed = state(&[13, 10, 15]);
        // One acknowledged increment too many: the totals disagree.
        let acked = BTreeMap::from([(LogicalItemId(0), 3), (LogicalItemId(2), 6)]);
        let err = check(3, 10, &acked, &observed).unwrap_err();
        assert!(err.starts_with("total is 38, expected 39"), "{err}");
    }

    #[test]
    fn misplaced_increment_with_the_right_total_is_rejected() {
        let acked = BTreeMap::from([(LogicalItemId(0), 3), (LogicalItemId(2), 5)]);
        let err = check(3, 10, &acked, &state(&[15, 10, 13])).unwrap_err();
        assert_eq!(err, "item 0 is 15, expected 13");
    }

    #[test]
    fn missing_items_are_rejected() {
        let err = check(4, 0, &BTreeMap::new(), &state(&[0, 0, 0])).unwrap_err();
        assert_eq!(err, "the final read returned 3 of 4 items");
    }
}
